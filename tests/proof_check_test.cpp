// Certified Unsat verdicts: every native refutation serializes to a
// certificate the standalone checker (tools/proof_check.cpp) accepts, and
// the checker rejects — with a named reason — a certificate corrupted in
// any single ingredient (dropped clause, perturbed Farkas multiplier,
// swapped literal, truncated tail). The checker shares nothing with the
// solver beyond the exact-number primitives, so these tests are the
// trust anchor of the whole proof pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "advocat/verifier.hpp"
#include "backend_fixture.hpp"
#include "coherence/mi_abstract.hpp"
#include "proof_check.hpp"
#include "smt/expr.hpp"
#include "smt/simplex_theory.hpp"
#include "smt/solver.hpp"
#include "smt/theory.hpp"

namespace advocat::smt {
namespace {

using proofcheck::CheckResult;
using proofcheck::check_proof_text;

/// Collects every certificate of a session in memory.
class CaptureSink : public ProofSink {
 public:
  void on_unsat_certificate(const Certificate& cert) override {
    certs.push_back(cert);
  }
  std::vector<Certificate> certs;
};

/// x ≤ 2 ∧ x ≥ 5: the smallest theory-level contradiction — its
/// certificate must contain a theory lemma with an inline Farkas proof.
void assert_interval_clash(ExprFactory& f, Solver& s) {
  const ExprId x = f.int_var("x");
  s.add(f.le(x, f.int_const(2)));
  s.add(f.le(f.int_const(5), x));
}

TEST(ProofCertificate, IntervalClashCertificateAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_interval_clash(f, *s);
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const Certificate& cert = sink.certs[0];
  EXPECT_EQ(cert.mode, "native");
  EXPECT_TRUE(cert.complete) << cert.reason;
  EXPECT_EQ(cert.proof_bytes, cert.text.size());
  const CheckResult r = check_proof_text(cert.text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  EXPECT_EQ(r.mode, "native");
  // The refutation is theory-level: an inline lemma proof must be there.
  EXPECT_NE(cert.text.find("lem"), std::string::npos);
  EXPECT_NE(cert.text.find("\nf "), std::string::npos);
}

TEST(ProofCertificate, BooleanContradictionCertificateAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId p = f.bool_var("p");
  const ExprId q = f.bool_var("q");
  s->add(f.or_({p, q}));
  s->add(f.or_({p, f.not_(q)}));
  s->add(f.not_(p));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofCertificate, TriviallyUnsatCertificateAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId p = f.bool_var("p");
  s->add(f.and_({p, f.not_(p)}));  // translation derives the empty clause
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofCertificate, SatCheckEmitsNoCertificate) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  s->add(f.le(x, f.int_const(10)));
  ASSERT_EQ(s->check(), SatResult::Sat);
  EXPECT_TRUE(sink.certs.empty());
}

TEST(ProofCertificate, IncrementalSessionCertifiesEveryUnsat) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  s->add(f.le(x, f.int_const(4)));
  s->add(f.le(f.int_const(0), x));
  // Probe a shrinking capacity: y ≥ k under x + y ≤ 4 ∧ y ≥ x ∧ x ≥ 3.
  s->add(f.le(f.int_const(3), x));
  s->add(f.le(f.add({x, y}), f.int_const(4)));
  for (int k = 0; k <= 3; ++k) {
    s->push();
    s->add(f.le(f.int_const(k), y));
    const SatResult r = s->check();
    EXPECT_EQ(r, k <= 1 ? SatResult::Sat : SatResult::Unsat) << "k=" << k;
    s->pop();
  }
  ASSERT_EQ(sink.certs.size(), 2u);  // k = 2 and k = 3
  for (const Certificate& cert : sink.certs) {
    EXPECT_TRUE(cert.complete) << cert.reason;
    const CheckResult r = check_proof_text(cert.text);
    EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  }
}

TEST(ProofCertificate, AssumptionRefutationCertified) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  s->add(f.le(x, f.int_const(7)));
  ASSERT_EQ(s->check_assuming({f.le(f.int_const(9), x)}), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofCertificate, EqualityAndDisequalityCertified) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  // x = 2y (even) ∧ x = 2z+1 (odd) — needs equality splitting or cuts.
  const ExprId z = f.int_var("z");
  s->add(f.eq(x, f.mul_const(2, y)));
  s->add(f.eq(x, f.add({f.mul_const(2, z), f.int_const(1)})));
  s->add(f.le(f.int_const(0), x));
  s->add(f.le(x, f.int_const(20)));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  EXPECT_TRUE(sink.certs[0].complete) << sink.certs[0].reason;
  const CheckResult r = check_proof_text(sink.certs[0].text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofCertificate, MidSessionAttachMarkedIncomplete) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  const ExprId x = f.int_var("x");
  s->add(f.le(x, f.int_const(2)));
  ASSERT_EQ(s->check(), SatResult::Sat);  // unlogged check
  CaptureSink sink;
  s->set_proof_sink(&sink);
  s->add(f.le(f.int_const(5), x));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  EXPECT_FALSE(sink.certs[0].complete);
  EXPECT_FALSE(sink.certs[0].reason.empty());
}

TEST(ProofCertificate, LoggingDoesNotPerturbDeterministicStats) {
  // The certification pipeline must be observation-only: the same
  // deterministic check with and without a sink returns the same verdict
  // and bit-identical search statistics.
  auto run = [](bool with_sink, SolveStats& stats) {
    ExprFactory f;
    auto s = make_solver(f, Backend::Native);
    s->set_deterministic(true);
    CaptureSink sink;
    if (with_sink) s->set_proof_sink(&sink);
    const ExprId x = f.int_var("x");
    const ExprId y = f.int_var("y");
    s->add(f.le(f.add({f.mul_const(3, x), f.mul_const(5, y)}),
                f.int_const(14)));
    s->add(f.le(f.int_const(2), x));
    s->add(f.le(f.int_const(2), y));
    const SatResult r = s->check();
    stats = s->solve_stats();
    return r;
  };
  SolveStats with{};
  SolveStats without{};
  ASSERT_EQ(run(true, with), SatResult::Unsat);
  ASSERT_EQ(run(false, without), SatResult::Unsat);
  EXPECT_EQ(with.decisions, without.decisions);
  EXPECT_EQ(with.conflicts, without.conflicts);
  EXPECT_EQ(with.propagations, without.propagations);
  EXPECT_EQ(with.restarts, without.restarts);
  EXPECT_EQ(with.learned_clauses, without.learned_clauses);
}

TEST(ProofCertificate, ParallelUnsatCertified) {
  for (const unsigned threads : {2u, 4u}) {
    ExprFactory f;
    auto s = make_solver(f, Backend::Native);
    s->set_threads(threads);
    CaptureSink sink;
    s->set_proof_sink(&sink);
    // Small pigeonhole-flavoured system: enough conflicts to exercise the
    // search, refuted whatever the parallel mode decides to do.
    std::vector<ExprId> vars;
    ExprId sum = f.int_const(0);
    for (int i = 0; i < 4; ++i) {
      const ExprId v = f.int_var("h" + std::to_string(i));
      s->add(f.le(f.int_const(1), v));
      vars.push_back(v);
      sum = f.add({sum, v});
    }
    s->add(f.le(sum, f.int_const(3)));
    ASSERT_EQ(s->check(), SatResult::Unsat) << "threads=" << threads;
    ASSERT_EQ(sink.certs.size(), 1u);
    const CheckResult r = check_proof_text(sink.certs[0].text);
    EXPECT_TRUE(r.ok) << "threads=" << threads << ": " << r.reason << ": "
                      << r.detail;
  }
}

// Certificate volume of a fixed certified sizing run: the sequential
// incremental ladder on the fig. 4 3x3 mesh, directory d3 (minimal
// capacity 5), is deterministic, so its total certificate bytes are a
// stable figure. Lemmas carrying every level-0 atom and every clause
// literal made its 2 certificates 1,941,777 bytes; trimmed to the
// premises their proofs use they were 464,869 bytes, and logged as the
// premises the solver's derivations read they are smaller still. No
// lemma needs a `ctx` line: every logged lemma is theory-valid alone.
TEST(ProofVolume, CertifiedSizingBytesAtMostHalfOfUntrimmed) {
  struct TotalSink : ProofSink {
    void on_unsat_certificate(const Certificate& cert) override {
      ++certs;
      bytes += cert.proof_bytes;
      const CheckResult r = check_proof_text(cert.text);
      accepted += r.ok && cert.complete ? 1 : 0;
      with_ctx += cert.text.find("\nctx ") != std::string::npos ? 1 : 0;
    }
    std::size_t certs = 0;
    std::size_t bytes = 0;
    std::size_t accepted = 0;
    std::size_t with_ctx = 0;
  } sink;
  core::QueueSizingOptions o;
  o.min_capacity = 1;
  o.max_capacity = 256;
  o.incremental = true;
  o.probe_threads = 1;
  o.verify.backend = Backend::Native;
  o.verify.threads = 1;
  o.verify.deterministic = true;
  o.verify.proof_sink = &sink;
  const core::QueueSizingResult r = core::find_minimal_queue_size(
      [](std::size_t cap) {
        coh::MiAbstractConfig config;
        config.width = 3;
        config.height = 3;
        config.directory_node = 3;
        config.queue_capacity = cap;
        return std::move(coh::build_mi_abstract(config).net);
      },
      o);
  ASSERT_EQ(r.minimal_capacity, 5u);
  ASSERT_GT(sink.certs, 0u);
  EXPECT_EQ(sink.accepted, sink.certs);
  EXPECT_EQ(sink.with_ctx, 0u);
  EXPECT_LE(sink.bytes, 464'869u);
}

// ------------------------------------------------ trimmed lemma shapes
// Every lemma is certified from only the premises its proof uses. These
// instances force the two body shapes the fig. 4 workloads never produce
// — an integer split and a simplex Farkas combination over premise rows —
// next to a decoy 3 ≤ z ≤ 7 asserted at level 0, which every full lemma
// context would carry and no trimmed lemma may.

/// One certificate lemma: its premise literals (`lem`, and `ctx` where a
/// hand-built certificate has one) and its proof body lines.
struct LemmaBlock {
  std::vector<long long> lits;
  std::vector<std::string> body;
};

std::vector<LemmaBlock> lemma_blocks(const std::string& text) {
  std::vector<LemmaBlock> blocks;
  std::istringstream in(text);
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == "lem") {
      blocks.emplace_back();
      inside = true;
    }
    if (!inside) continue;
    if (head == "lem" || head == "ctx") {
      for (long long l = 0; ls >> l && l != 0;) blocks.back().lits.push_back(l);
    } else if (head == "end") {
      inside = false;
    } else {
      blocks.back().body.push_back(line);
    }
  }
  return blocks;
}

/// Boolean variables (as certificate literals) of the atoms over the
/// integer variable bounded above by `hi` in a single-term atom.
std::vector<long long> atoms_over_var_bounded_by(const std::string& text,
                                                 int hi) {
  std::vector<std::pair<long long, std::vector<long long>>> atoms;
  long long var = -1;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string head, kind;
    long long b = 0, bound = 0, k = 0;
    if (!(ls >> head) || head != "atom") continue;
    ls >> b >> kind >> bound >> k;
    std::vector<long long> vars;
    long long v = 0, c = 0;
    while (ls >> v >> c) vars.push_back(v);
    if (kind == "le" && bound == hi && k == 1 && c == 1) var = vars[0];
    atoms.emplace_back(b, vars);
  }
  std::vector<long long> out;
  for (const auto& [b, vars] : atoms) {
    if (std::find(vars.begin(), vars.end(), var) != vars.end()) {
      out.push_back(b);
    }
  }
  return out;
}

void assert_decoy(ExprFactory& f, Solver& s) {
  const ExprId z = f.int_var("z");
  s.add(f.le(f.int_const(3), z));
  s.add(f.le(z, f.int_const(7)));
}

/// The lemmas of `text` whose body has a line starting with `step`; each
/// must leave out the decoy's atoms.
std::size_t trimmed_lemmas_with(const std::string& text,
                                const std::string& step) {
  const std::vector<long long> decoy = atoms_over_var_bounded_by(text, 7);
  EXPECT_EQ(decoy.size(), 2u);
  std::size_t found = 0;
  for (const LemmaBlock& lem : lemma_blocks(text)) {
    const bool has = std::any_of(
        lem.body.begin(), lem.body.end(),
        [&](const std::string& l) { return l.rfind(step, 0) == 0; });
    if (!has) continue;
    ++found;
    for (const long long l : lem.lits) {
      EXPECT_EQ(std::count(decoy.begin(), decoy.end(), std::llabs(l)), 0)
          << "lemma keeps decoy literal " << l;
    }
  }
  return found;
}

TEST(ProofShapes, SplitLemmaTrimmedAndAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_decoy(f, *s);
  // x + y = 1 ∧ x = y over 0 ≤ x, y ≤ 1: 2x = 1 is rationally feasible at
  // x = y = 1/2, and interval tightening alone never crosses, so the
  // proof must split x ≤ 0 ∨ x ≥ 1.
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  for (const ExprId v : {x, y}) {
    s->add(f.le(f.int_const(0), v));
    s->add(f.le(v, f.int_const(1)));
  }
  s->add(f.eq(f.add({x, y}), f.int_const(1)));
  s->add(f.eq(x, y));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const Certificate& cert = sink.certs[0];
  EXPECT_TRUE(cert.complete) << cert.reason;
  const CheckResult r = check_proof_text(cert.text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  EXPECT_EQ(trimmed_lemmas_with(cert.text, "s "), 1u) << cert.text;
  EXPECT_NE(cert.text.find("\nalt\n"), std::string::npos);
  EXPECT_NE(cert.text.find("\njoin\n"), std::string::npos);
}

TEST(ProofShapes, FarkasLemmaTrimmedAndAccepted) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_decoy(f, *s);
  // x < y ∧ y < x over unbounded x, y: tightening derives nothing, and the
  // simplex refutes the two premise rows with multipliers 1 and 1.
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  s->add(f.le(f.add({x, f.int_const(1)}), y));
  s->add(f.le(f.add({y, f.int_const(1)}), x));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const Certificate& cert = sink.certs[0];
  EXPECT_TRUE(cert.complete) << cert.reason;
  const CheckResult r = check_proof_text(cert.text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  EXPECT_EQ(trimmed_lemmas_with(cert.text, "f 2 p"), 1u) << cert.text;
}

TEST(ProofShapes, LeafLemmaSeededFromRefutation) {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_decoy(f, *s);
  // x + y = 3 ∧ x = y over 0 ≤ x, y ≤ 3: interval propagation derives
  // nothing, so only the leaf search's enumeration of x refutes it. Every
  // atom is asserted at level 0, where the search's blocking clause keeps
  // none of them; the logged lemma is the atoms the refutation read.
  const ExprId x = f.int_var("x");
  const ExprId y = f.int_var("y");
  for (const ExprId v : {x, y}) {
    s->add(f.le(f.int_const(0), v));
    s->add(f.le(v, f.int_const(3)));
  }
  s->add(f.eq(f.add({x, y}), f.int_const(3)));
  s->add(f.eq(x, y));
  ASSERT_EQ(s->check(), SatResult::Unsat);
  ASSERT_EQ(sink.certs.size(), 1u);
  const Certificate& cert = sink.certs[0];
  EXPECT_TRUE(cert.complete) << cert.reason;
  const CheckResult r = check_proof_text(cert.text);
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
  EXPECT_EQ(cert.text.find("\nctx "), std::string::npos) << cert.text;
  EXPECT_EQ(trimmed_lemmas_with(cert.text, "s "), 1u) << cert.text;
  for (const LemmaBlock& lem : lemma_blocks(cert.text)) {
    EXPECT_FALSE(lem.lits.empty()) << cert.text;
  }
}

// ------------------------------------------------------- mutation tests
// Every certificate ingredient, corrupted one at a time, must be caught
// and named. The base certificate is a real solver artifact, not a
// hand-written fixture, so the mutations track the live grammar.

std::string interval_clash_certificate() {
  ExprFactory f;
  auto s = make_solver(f, Backend::Native);
  CaptureSink sink;
  s->set_proof_sink(&sink);
  assert_interval_clash(f, *s);
  EXPECT_EQ(s->check(), SatResult::Unsat);
  EXPECT_EQ(sink.certs.size(), 1u);
  return sink.certs.empty() ? std::string() : sink.certs[0].text;
}

TEST(ProofMutation, BaseCertificateAccepted) {
  const CheckResult r = check_proof_text(interval_clash_certificate());
  ASSERT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofMutation, DroppedProblemClauseRejected) {
  std::string text = interval_clash_certificate();
  // Drop the first `assume` hypothesis: the refutation loses a premise.
  const std::size_t at = text.find("\nassume ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t eol = text.find('\n', at + 1);
  text.erase(at, eol - at);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == "qed-failed" || r.reason == "rup-failed" ||
              r.reason == "ctx-underived" || r.reason == "lemma-unproven")
      << r.reason;
}

TEST(ProofMutation, PerturbedFarkasMultiplierRejected) {
  std::string text = interval_clash_certificate();
  // First Farkas step: "f <n> <ref> <num> <den> ..." — scale the first
  // multiplier's numerator so the combination no longer cancels.
  const std::size_t at = text.find("\nf ");
  ASSERT_NE(at, std::string::npos);
  std::size_t sp = text.find(' ', at + 3);   // after <n>
  ASSERT_NE(sp, std::string::npos);
  sp = text.find(' ', sp + 1);               // after <ref>
  ASSERT_NE(sp, std::string::npos);
  text.insert(sp + 1, "7");  // 1 -> 71, or any num -> 7num
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-invalid-farkas") << r.detail;
}

TEST(ProofMutation, SwappedLiteralRejected) {
  std::string text = interval_clash_certificate();
  // Negate the first literal of the first lemma clause: its inline proof
  // no longer matches the premises.
  const std::size_t at = text.find("\nlem ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t lit = at + 5;
  if (text[lit] == '-') {
    text.erase(lit, 1);
  } else {
    text.insert(lit, "-");
  }
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == "lemma-bad-ref" ||
              r.reason == "lemma-invalid-farkas" ||
              r.reason == "lemma-open-branch" || r.reason == "qed-failed" ||
              r.reason == "lemma-diseq-unforced")
      << r.reason;
}

TEST(ProofMutation, TruncatedTailRejected) {
  std::string text = interval_clash_certificate();
  const std::size_t qed = text.rfind("qed");
  ASSERT_NE(qed, std::string::npos);
  text.resize(qed);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "truncated") << r.detail;
}

TEST(ProofMutation, TruncatedLemmaBodyRejected) {
  std::string text = interval_clash_certificate();
  // Cut everything from the first proof step to the lemma's `end`: the
  // branch is left open.
  const std::size_t f_at = text.find("\nf ");
  ASSERT_NE(f_at, std::string::npos);
  const std::size_t end_at = text.find("\nend", f_at);
  ASSERT_NE(end_at, std::string::npos);
  text.erase(f_at, end_at - f_at);
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-open-branch") << r.detail;
}

TEST(ProofMutation, UnprovenLemmaRejected) {
  std::string text = interval_clash_certificate();
  const std::size_t f_at = text.find("\nf ");
  ASSERT_NE(f_at, std::string::npos);
  const std::size_t end_at = text.find("\nend", f_at);
  ASSERT_NE(end_at, std::string::npos);
  text.replace(f_at, end_at - f_at, "\nunproven");
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "lemma-unproven") << r.detail;
}

TEST(ProofMutation, GarbageHeaderRejected) {
  const CheckResult r = check_proof_text("not a proof\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "bad-header");
}

// A one-atom certificate whose atom line is `atom` verbatim: malformed
// coefficient shapes must be parse errors, not an exception escaping the
// checker's tightening (a zero coefficient divides by zero there).
std::string one_atom_certificate(const std::string& atom) {
  return "advocat-proof 1\nmode native\nnvars 1\nnints 2\n" + atom +
         "\nlem 1 0\nf 2 lo0 1 1 hi0 1 1\nend\nqed\n";
}

TEST(ProofMutation, ZeroAtomCoefficientRejected) {
  const CheckResult r =
      check_proof_text(one_atom_certificate("atom 1 le 0 1 0 0"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "parse-error") << r.detail;
}

TEST(ProofMutation, MinInt64AtomCoefficientRejected) {
  const CheckResult r = check_proof_text(
      one_atom_certificate("atom 1 le 0 1 0 -9223372036854775808"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "parse-error") << r.detail;
}

TEST(ProofMutation, RepeatedAtomVariableRejected) {
  const CheckResult r =
      check_proof_text(one_atom_certificate("atom 1 le 0 3 0 1 1 2 0 -1"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "parse-error") << r.detail;
}

TEST(ProofMutation, OutOfRangeLiteralRejected) {
  std::string text = interval_clash_certificate();
  const std::size_t at = text.find("\nlem ");
  ASSERT_NE(at, std::string::npos);
  text.insert(at + 5, "99999999999999999999999 ");
  const CheckResult r = check_proof_text(text);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "parse-error") << r.detail;
}

TEST(ProofMutation, AttestedCertificateAcceptedAsAttested) {
  const CheckResult r =
      check_proof_text("advocat-proof 1\nmode attested z3\nqed\n");
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.mode, "attested");
}

// ------------------------------------------------------ ctx grammar
// The solver logs every lemma theory-valid on its own and so never emits
// `ctx`, but the grammar keeps it: a ctx literal joins the lemma's
// premises once unit propagation over the clauses so far derives it.
// Atom 1 is x ≤ 2, atom 2 is x ≥ 5; the lemma ¬2 under ctx 1 is valid.
std::string ctx_certificate(const std::string& inputs) {
  return "advocat-proof 1\nmode native\nnvars 2\nnints 1\n"
         "atom 1 le 2 1 0 1\natom 2 le -5 1 0 -1\n" +
         inputs +
         "lem -2 0\nctx 1 0\nf 2 lo0 1 1 hi0 1 1\nend\nqed\n";
}

TEST(ProofGrammar, DerivableCtxAccepted) {
  const CheckResult r =
      check_proof_text(ctx_certificate("in 1 0\nin 2 0\n"));
  EXPECT_TRUE(r.ok) << r.reason << ": " << r.detail;
}

TEST(ProofGrammar, UnderivedCtxRejected) {
  const CheckResult r = check_proof_text(ctx_certificate("in 2 0\n"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, "ctx-underived") << r.detail;
}

// ---------------------------------------------- Farkas multiplier surface
// The theory bridge exposes the exact multipliers of a branch-free
// refutation (SimplexTheory::Result::farkas); re-substituting them must
// cancel every column and cross zero — the same invariant the proof
// checker enforces on serialized `f` steps.
TEST(SimplexFarkas, ExposedMultipliersCancelExactly) {
  SimplexTheory th;
  theory::Row r1{{{0, 1}, {1, 1}}, 3};    //  x + y ≤ 3
  theory::Row r2{{{0, -1}}, -2};          //  x ≥ 2
  theory::Row r3{{{1, -1}}, -2};          //  y ≥ 2
  const SimplexTheory::Result res =
      th.check({&r1, &r2, &r3}, {}, /*integer_complete=*/false);
  ASSERT_EQ(res.verdict, SimplexTheory::Verdict::Infeasible);
  ASSERT_FALSE(res.farkas.empty());
  const std::vector<theory::Row> rows{r1, r2, r3};
  util::Rational col_x(0), col_y(0), bound(0);
  for (const linalg::FarkasTerm& t : res.farkas) {
    ASSERT_GE(t.tag, 0);
    ASSERT_LT(static_cast<std::size_t>(t.tag), rows.size());
    EXPECT_FALSE(t.mult.is_negative());
    for (const auto& [v, c] : rows[static_cast<std::size_t>(t.tag)].terms) {
      (v == 0 ? col_x : col_y) += t.mult * util::Rational(c);
    }
    bound += t.mult * util::Rational(rows[static_cast<std::size_t>(t.tag)].bound);
  }
  EXPECT_TRUE(col_x.is_zero());
  EXPECT_TRUE(col_y.is_zero());
  EXPECT_TRUE(bound.is_negative());
}

}  // namespace
}  // namespace advocat::smt
