// Certificate generation: re-derives each logged theory lemma's integer
// infeasibility as an explicit branch-and-cut proof tree (interval
// tightening with Chvátal–Gomory rounding, single-variable splits,
// disequality forcing, and exact Farkas combinations from a fresh rational
// simplex), then serializes the session trace into the line grammar the
// standalone checker (tools/proof_check.cpp) validates.
//
// The checker re-runs the *same* bound-tightening algorithm (tighten()
// below is duplicated there by design — the checker must not link solver
// code), so a proof step can reference derived bounds as `lo<v>` / `hi<v>`
// without serializing every intermediate derivation: both sides reach the
// identical bound state deterministically.
#include "smt/proof.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "linalg/simplex.hpp"
#include "util/bigint.hpp"
#include "util/rational.hpp"
#include "util/stopwatch.hpp"

namespace advocat::smt::native {
namespace {

using util::BigInt;
using util::Rational;

// ------------------------------------------------------ lemma certifier

// One ≤-inequality over the shared integer columns.
struct Ineq {
  std::vector<std::pair<int, std::int64_t>> terms;
  BigInt bound;
  std::size_t premise = 0;  // index of the premise literal it encodes
  bool reversed = false;    // the ≥-half of an equality premise
};

// Proof reference of a premise row: "p<i>", or "q<i>" for the ≥-half of
// an equality premise.
std::string row_ref(const Ineq& r) {
  return (r.reversed ? "q" : "p") + std::to_string(r.premise);
}

// One disequality premise (an equality atom asserted false).
struct Diseq {
  std::vector<std::pair<int, std::int64_t>> terms;
  std::int64_t bound = 0;
  std::size_t premise = 0;
};

struct VarBound {
  bool has = false;
  BigInt val;
  int why = -1;  // Provenance event that set the bound; -1 when unrecorded
                 // or set by a split
};

// Branch state: the premise rows are shared; the bounds are copied per
// branch (splits only ever tighten bounds — a single-variable split is a
// bound update, not a new row).
struct CertState {
  std::vector<VarBound> lo, hi;
};

// Where the bounds tighten() derives come from, for trimming a lemma to
// the premises its proof uses. Every bound tighten() sets is one event:
// the premise row that set it and the events of the bounds that row read.
// Split bounds are case hypotheses, not premises, and carry no event, so
// walking back from the bounds and rows a closing step references reaches
// exactly the premises the proof rests on.
struct Provenance {
  struct Event {
    std::size_t premise;
    std::size_t reads_begin;
    std::size_t reads_end;
  };
  std::vector<Event> events;
  std::vector<int> reads;  // event ids, sliced per Event
  std::vector<char> seen;  // per event: already walked back
  std::vector<char> used;  // per premise: the proof uses it

  // Records that row `r` set the bound of its term `ti` from the current
  // bounds of its other terms; returns the new event's id.
  int record(const Ineq& r, std::size_t ti, const CertState& st) {
    const std::size_t begin = reads.size();
    for (std::size_t tj = 0; tj < r.terms.size(); ++tj) {
      if (tj == ti) continue;
      const auto [u, cu] = r.terms[tj];
      const VarBound& b = cu > 0 ? st.lo[static_cast<std::size_t>(u)]
                                 : st.hi[static_cast<std::size_t>(u)];
      if (b.why >= 0) reads.push_back(b.why);
    }
    events.push_back({r.premise, begin, reads.size()});
    return static_cast<int>(events.size() - 1);
  }

  // Marks every premise event `why` transitively rests on.
  void use(int why) {
    seen.resize(events.size());
    std::vector<int> stack{why};
    while (!stack.empty()) {
      const int e = stack.back();
      stack.pop_back();
      if (e < 0 || seen[static_cast<std::size_t>(e)] != 0) continue;
      seen[static_cast<std::size_t>(e)] = 1;
      const Event& ev = events[static_cast<std::size_t>(e)];
      used[ev.premise] = 1;
      stack.insert(stack.end(),
                   reads.begin() + static_cast<std::ptrdiff_t>(ev.reads_begin),
                   reads.begin() + static_cast<std::ptrdiff_t>(ev.reads_end));
    }
  }
};

// floor(a/b) for b > 0 (BigInt division truncates toward zero).
BigInt floor_div_big(const BigInt& a, const BigInt& b) {
  BigInt q = a / b;
  if (!(a % b).is_zero() && a.is_negative()) q -= BigInt(1);
  return q;
}
constexpr int kTightenPasses = 64;

// Interval tightening to fixpoint (or pass budget) with integer rounding.
// Returns the crossed variable on contradiction, -1 otherwise. MUST stay
// behaviorally identical to the checker's copy: stop at the first
// crossing, rows in order, terms in order, full passes. `prov`, when
// given, only observes: it records each bound set, never which.
int tighten(const std::vector<Ineq>& rows, CertState& st,
            Provenance* prov = nullptr) {
  for (int pass = 0; pass < kTightenPasses; ++pass) {
    bool changed = false;
    for (const Ineq& r : rows) {
      for (std::size_t ti = 0; ti < r.terms.size(); ++ti) {
        const int v = r.terms[ti].first;
        const std::int64_t c = r.terms[ti].second;
        BigInt rest(0);
        bool open = false;
        for (std::size_t tj = 0; tj < r.terms.size(); ++tj) {
          if (tj == ti) continue;
          const int u = r.terms[tj].first;
          const std::int64_t cu = r.terms[tj].second;
          const VarBound& b = cu > 0 ? st.lo[static_cast<std::size_t>(u)]
                                     : st.hi[static_cast<std::size_t>(u)];
          if (!b.has) {
            open = true;
            break;
          }
          rest += BigInt(cu) * b.val;
        }
        if (open) continue;
        const BigInt avail = r.bound - rest;  // c·v ≤ avail
        if (c > 0) {
          const BigInt nb = floor_div_big(avail, BigInt(c));
          VarBound& hb = st.hi[static_cast<std::size_t>(v)];
          if (!hb.has || nb < hb.val) {
            hb.has = true;
            hb.val = nb;
            changed = true;
            if (prov != nullptr) hb.why = prov->record(r, ti, st);
          }
        } else {
          // c < 0: c·v ≤ avail ⇔ v ≥ avail/c; with cc = -c > 0 that is
          // v ≥ -(avail/cc), so lo = ceil(-avail/cc) = -floor(avail/cc).
          const BigInt nb = -floor_div_big(avail, BigInt(-c));
          VarBound& lb = st.lo[static_cast<std::size_t>(v)];
          if (!lb.has || nb > lb.val) {
            lb.has = true;
            lb.val = nb;
            changed = true;
            if (prov != nullptr) lb.why = prov->record(r, ti, st);
          }
        }
        const VarBound& lb = st.lo[static_cast<std::size_t>(v)];
        const VarBound& hb = st.hi[static_cast<std::size_t>(v)];
        if (lb.has && hb.has && lb.val > hb.val) return v;
      }
    }
    if (!changed) break;
  }
  return -1;
}

// Certifier context for one lemma. With `prov` set, every closing step
// also marks the premises it uses in prov->used.
struct Certifier {
  const std::vector<Ineq>& rows;
  const std::vector<Diseq>& diseqs;
  std::size_t num_vars;
  Provenance* prov = nullptr;
  int steps_left = 20000;

  bool branch(CertState st, std::ostringstream& out, int depth);
  void use(const VarBound& b) const {
    if (prov != nullptr) prov->use(b.why);
  }
  void use(std::size_t premise) const {
    if (prov != nullptr) prov->used[premise] = 1;
  }
};

std::string rat_pair(const Rational& r) {
  return r.num().to_string() + " " + r.den().to_string();
}

bool Certifier::branch(CertState st, std::ostringstream& out, int depth) {
  if (--steps_left <= 0 || depth > 48) return false;

  // 1. Integer interval tightening: a bound crossing is a contradiction
  // the checker re-derives, so the step only names the crossed variable's
  // two bounds.
  const int crossed = tighten(rows, st, prov);
  if (crossed >= 0) {
    use(st.lo[static_cast<std::size_t>(crossed)]);
    use(st.hi[static_cast<std::size_t>(crossed)]);
    out << "f 2 lo" << crossed << " 1 1 hi" << crossed << " 1 1\n";
    return true;
  }

  // 2. A disequality whose linear form is pinned to exactly its excluded
  // value refutes the branch.
  for (const Diseq& d : diseqs) {
    BigInt sum(0);
    bool fixed = true;
    for (const auto& [v, c] : d.terms) {
      const VarBound& lb = st.lo[static_cast<std::size_t>(v)];
      const VarBound& hb = st.hi[static_cast<std::size_t>(v)];
      if (!lb.has || !hb.has || lb.val != hb.val) {
        fixed = false;
        break;
      }
      sum += BigInt(c) * lb.val;
    }
    if (fixed && sum == BigInt(d.bound)) {
      use(d.premise);
      for (const auto& [v, c] : d.terms) {
        use(st.lo[static_cast<std::size_t>(v)]);
        use(st.hi[static_cast<std::size_t>(v)]);
      }
      out << "dq " << d.premise << "\n";
      return true;
    }
  }

  // 3. Exact rational simplex over the rows plus the current bounds; an
  // infeasibility yields the Farkas combination verbatim. Each simplex tag
  // is either a current bound or a premise row.
  struct Tag {
    std::string ref;
    const VarBound* bound = nullptr;
    const Ineq* row = nullptr;
  };
  linalg::Simplex spx;
  std::vector<Tag> tags;
  bool infeasible = false;
  for (std::size_t v = 0; v < num_vars; ++v) {
    const VarBound& lb = st.lo[v];
    const VarBound& hb = st.hi[v];
    if (!lb.has && !hb.has) continue;
    const int x = spx.var(static_cast<std::int32_t>(v));
    if (lb.has) {
      tags.push_back({"lo" + std::to_string(v), &lb});
      if (!spx.assert_lower(x, Rational(lb.val),
                            static_cast<int>(tags.size() - 1))) {
        infeasible = true;
      }
    }
    if (!infeasible && hb.has) {
      tags.push_back({"hi" + std::to_string(v), &hb});
      if (!spx.assert_upper(x, Rational(hb.val),
                            static_cast<int>(tags.size() - 1))) {
        infeasible = true;
      }
    }
    if (infeasible) break;
  }
  if (!infeasible) {
    for (const Ineq& r : rows) {
      if (r.terms.empty()) {
        if (r.bound.is_negative()) {
          use(r.premise);
          out << "f 1 " << row_ref(r) << " 1 1\n";  // 0 ≤ negative
          return true;
        }
        continue;
      }
      std::vector<std::pair<std::int32_t, std::int64_t>> terms;
      terms.reserve(r.terms.size());
      for (const auto& [v, c] : r.terms) {
        terms.emplace_back(static_cast<std::int32_t>(v), c);
      }
      const int s = spx.add_slack(terms);
      tags.push_back({row_ref(r), nullptr, &r});
      if (!spx.assert_upper(s, Rational(r.bound),
                            static_cast<int>(tags.size() - 1))) {
        infeasible = true;
        break;
      }
    }
  }
  if (!infeasible) infeasible = !spx.check();
  if (infeasible) {
    const auto& fk = spx.farkas();
    std::ostringstream f;
    int n = 0;
    for (const linalg::FarkasTerm& t : fk) {
      if (t.mult.is_zero() || t.mult.is_negative()) continue;
      const Tag& tag = tags[static_cast<std::size_t>(t.tag)];
      if (tag.bound != nullptr) use(*tag.bound);
      if (tag.row != nullptr) use(tag.row->premise);
      f << " " << tag.ref << " " << rat_pair(t.mult);
      ++n;
    }
    out << "f " << n << f.str() << "\n";
    return true;
  }

  // 4. Rationally feasible: split on an unfixed variable. Prefer the
  // narrowest finite interval; fall back to cutting at the simplex
  // vertex value for half-open intervals.
  int best = -1;
  std::optional<BigInt> best_width;
  for (std::size_t v = 0; v < num_vars; ++v) {
    const VarBound& lb = st.lo[v];
    const VarBound& hb = st.hi[v];
    if (!lb.has || !hb.has || lb.val == hb.val) continue;
    const BigInt w = hb.val - lb.val;
    if (!best_width || w < *best_width) {
      best_width = w;
      best = static_cast<int>(v);
    }
  }
  BigInt cut;
  if (best >= 0) {
    cut = st.lo[static_cast<std::size_t>(best)].val +
          floor_div_big(*best_width, BigInt(2));
  } else {
    // No finite-width variable: cut a half-open one at its vertex value.
    for (std::size_t v = 0; v < num_vars; ++v) {
      const VarBound& lb = st.lo[v];
      const VarBound& hb = st.hi[v];
      if (lb.has && hb.has) continue;
      if (!lb.has && !hb.has) continue;
      const int x = spx.var(static_cast<std::int32_t>(v));
      const Rational& val = spx.value(x);
      BigInt k = floor_div_big(val.num(), val.den());
      if (hb.has && k >= hb.val) k = hb.val - BigInt(1);
      if (lb.has && k < lb.val) k = lb.val;
      best = static_cast<int>(v);
      cut = k;
      break;
    }
    if (best < 0) return false;  // everything fixed yet feasible: the
                                 // lemma is not certifiable this way
  }
  // A split is a tautology, but finding it again on trimmed premises
  // needs the bounds that made this variable the choice.
  use(st.lo[static_cast<std::size_t>(best)]);
  use(st.hi[static_cast<std::size_t>(best)]);
  out << "s " << best << " " << cut.to_string() << "\n";
  CertState left = st;
  VarBound& lhi = left.hi[static_cast<std::size_t>(best)];
  lhi.has = true;
  lhi.val = cut;
  lhi.why = -1;
  if (!branch(std::move(left), out, depth + 1)) return false;
  out << "alt\n";
  CertState right = std::move(st);
  VarBound& rlo = right.lo[static_cast<std::size_t>(best)];
  rlo.has = true;
  rlo.val = cut + BigInt(1);
  rlo.why = -1;
  if (!branch(std::move(right), out, depth + 1)) return false;
  out << "join\n";
  return true;
}

// Extracts the premise system of a lemma clause: the negation of each
// clause literal, mapped through the atom table. Returns false when some
// literal is not a theory atom (cannot occur for the logged lemma
// sources; defensive).
bool lemma_premises(const SharedProblem& sh, const std::vector<Lit>& lits,
                    std::vector<Ineq>& rows, std::vector<Diseq>& diseqs) {
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit pl = neg(lits[i]);
    const int v = var_of(pl);
    if (v < 0 || v >= sh.num_bvars) return false;
    const int ai = sh.atom_of_var[static_cast<std::size_t>(v)];
    if (ai < 0) return false;
    const Atom& a = sh.atoms[static_cast<std::size_t>(ai)];
    if (!is_neg(pl)) {  // atom asserted true
      Ineq le;
      le.terms = a.terms;
      le.bound = BigInt(a.bound);
      le.premise = i;
      rows.push_back(std::move(le));
      if (a.is_eq) {
        Ineq ge;
        for (const auto& [u, c] : a.terms) ge.terms.emplace_back(u, -c);
        ge.bound = BigInt(-a.bound);
        ge.premise = i;
        ge.reversed = true;
        rows.push_back(std::move(ge));
      }
    } else if (!a.is_eq) {  // Σ ≤ b false  ⇔  Σ ≥ b+1 (integers)
      Ineq gt;
      for (const auto& [u, c] : a.terms) gt.terms.emplace_back(u, -c);
      gt.bound = BigInt(-a.bound) - BigInt(1);
      gt.premise = i;
      rows.push_back(std::move(gt));
    } else {  // equality asserted false: a disequality
      Diseq d;
      d.terms = a.terms;
      d.bound = a.bound;
      d.premise = i;
      diseqs.push_back(std::move(d));
    }
  }
  return true;
}

// Proves the premise system of clause `lits` infeasible; returns the
// proof body ("" on failure). With `prov`, also marks in prov->used
// (indexed like the clause literals) the premises the body uses.
std::string certify(const SharedProblem& sh, const std::vector<Lit>& lits,
                    Provenance* prov) {
  std::vector<Ineq> rows;
  std::vector<Diseq> diseqs;
  if (!lemma_premises(sh, lits, rows, diseqs)) return "";
  if (prov != nullptr) prov->used.assign(lits.size(), 0);
  CertState st;
  st.lo.resize(sh.int_names.size());
  st.hi.resize(sh.int_names.size());
  Certifier cert{rows, diseqs, sh.int_names.size(), prov};
  std::ostringstream body;
  if (!cert.branch(std::move(st), body, 0)) return "";
  return body.str();
}

// Certifies one logged lemma, trimmed to the premises its proof uses: the
// first proof records where its bounds come from, and the lemma is then
// certified again on the used premises alone — tightening over fewer rows
// may cross at a different variable, so the body is re-derived, not
// renumbered. A clause with fewer literals is a stronger clause, so every
// later RUP step still checks. Falls back to the full lemma if the trimmed
// one does not certify.
CertifiedLemma certify_lemma(const SharedProblem& sh, const ProofRecord& rec) {
  CertifiedLemma full{rec.lits, ""};
  Provenance prov;
  full.body = certify(sh, rec.lits, &prov);
  if (full.body.empty()) return full;
  CertifiedLemma cone;
  for (std::size_t i = 0; i < prov.used.size(); ++i) {
    if (prov.used[i] != 0) cone.lits.push_back(rec.lits[i]);
  }
  if (cone.lits.size() == rec.lits.size()) return full;
  cone.body = certify(sh, cone.lits, nullptr);
  if (cone.body.empty()) return full;
  return cone;
}

void write_clause(std::ostringstream& out, const char* head,
                  const std::vector<Lit>& lits) {
  out << head;
  for (const Lit l : lits) out << " " << proof_lit(l);
  out << " 0\n";
}

}  // namespace

Certificate build_certificate(const CertificateInputs& in,
                              LemmaCache& lemma_cache) {
  const util::Stopwatch sw;
  Certificate cert;
  cert.mode = "native";
  std::ostringstream out;
  out << "advocat-proof 1\n";
  out << "mode native\n";
  if (in.trivially_unsat) {
    // Translation already derived the empty clause.
    out << "in 0\nqed\n";
    cert.text = out.str();
    cert.proof_bytes = cert.text.size();
    cert.proof_ms = sw.millis();
    return cert;
  }

  const SharedProblem& sh = *in.sh;
  out << "nvars " << sh.num_bvars << "\n";
  out << "nints " << sh.int_names.size() << "\n";
  for (std::size_t ai = 0; ai < sh.atoms.size(); ++ai) {
    const Atom& a = sh.atoms[ai];
    out << "atom " << sh.atom_var[ai] + 1 << (a.is_eq ? " eq " : " le ")
        << a.bound << " " << a.terms.size();
    for (const auto& [v, c] : a.terms) out << " " << v << " " << c;
    out << "\n";
  }
  for (std::size_t ci = 0; ci < sh.clauses.size(); ++ci) {
    out << "in";
    const Lit* lits = sh.clauses.begin(ci);
    const std::uint32_t n = sh.clauses.len(ci);
    for (std::uint32_t k = 0; k < n; ++k) out << " " << proof_lit(lits[k]);
    out << " 0\n";
  }
  for (const Lit l : sh.def_units) out << "in " << proof_lit(l) << " 0\n";
  for (const Lit l : in.assume_lits) {
    out << "assume " << proof_lit(l) << " 0\n";
  }

  bool complete = !in.attached_mid_session;
  std::string reason =
      in.attached_mid_session ? "proof sink attached mid-session" : "";
  std::vector<Lit> key;
  for (const ProofRecord& rec : *in.trace) {
    switch (rec.kind) {
      case ProofRecord::Kind::kRup:
        write_clause(out, "rup", rec.lits);
        break;
      case ProofRecord::Kind::kDelete:
        write_clause(out, "del", rec.lits);
        break;
      case ProofRecord::Kind::kLemma: {
        key.assign(rec.lits.begin(), rec.lits.end());
        std::sort(key.begin(), key.end());
        auto it = lemma_cache.find(key);
        if (it == lemma_cache.end()) {
          it = lemma_cache.emplace(key, certify_lemma(sh, rec)).first;
        }
        const CertifiedLemma& lem = it->second;
        write_clause(out, "lem", lem.lits);
        if (lem.body.empty()) {
          out << "unproven\n";
          if (complete) {
            complete = false;
            reason = "uncertified theory lemma";
          }
        } else {
          out << lem.body;
        }
        out << "end\n";
        break;
      }
    }
  }

  // Cube-mode refutation: one RUP clause per refuted cube, then the
  // binary folding ladder down to the empty clause (a bare set of 2^k
  // leaf clauses is not unit-refutable; each prefix clause resolves the
  // two one-longer clauses that extend it).
  if (!in.cubes.empty()) {
    for (const std::vector<Lit>& cube : in.cubes) {
      out << "rup";
      for (const Lit l : cube) out << " " << proof_lit(neg(l));
      out << " 0\n";
    }
    const std::vector<Lit>& first = in.cubes.front();
    const std::size_t k = first.size();
    std::vector<int> vars(k);
    for (std::size_t b = 0; b < k; ++b) vars[b] = var_of(first[b]);
    for (std::size_t j = k; j-- > 1;) {
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << j); ++m) {
        out << "rup";
        for (std::size_t b = 0; b < j; ++b) {
          out << " " << proof_lit(neg(mk_lit(vars[b], (m >> b & 1) != 0)));
        }
        out << " 0\n";
      }
    }
  }
  out << "qed\n";

  cert.text = out.str();
  cert.complete = complete;
  cert.reason = reason;
  cert.proof_bytes = cert.text.size();
  cert.proof_ms = sw.millis();
  return cert;
}

}  // namespace advocat::smt::native
