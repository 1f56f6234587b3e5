// Hash-consed SMT term DAG over linear integer arithmetic and booleans.
//
// The paper (§4.2, §6.3) deliberately restricts path conditions to simple
// integer comparisons so that summaries stay solvable; this layer mirrors that
// choice: the only sorts are Int and Bool, and terms are built through
// constructors that constant-fold and apply cheap local simplifications before
// anything reaches Z3.
#ifndef DNSV_SMT_TERM_H_
#define DNSV_SMT_TERM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/support/logging.h"

namespace dnsv {

enum class Sort : uint8_t { kInt, kBool };

enum class TermKind : uint8_t {
  kIntConst,
  kBoolConst,
  kVar,
  kAdd,
  kSub,
  kMul,
  kDiv,   // truncated toward zero, like Go
  kMod,   // sign follows dividend, like Go
  kEq,    // int == int
  kLt,    // int < int
  kLe,    // int <= int
  kAnd,   // n-ary
  kOr,    // n-ary
  kNot,
  kIte,   // bool ? int : int
  kBoolEq,  // bool == bool (iff)
};

// Handle into a TermArena. Value type; cheap to copy. Id 0 is reserved as
// "invalid" so default-constructed handles are detectable.
class Term {
 public:
  Term() = default;
  explicit Term(uint32_t id) : id_(id) {}
  uint32_t id() const { return id_; }
  bool valid() const { return id_ != 0; }
  bool operator==(const Term& other) const { return id_ == other.id_; }
  bool operator!=(const Term& other) const { return id_ != other.id_; }

 private:
  uint32_t id_ = 0;
};

struct TermNode {
  TermKind kind;
  Sort sort;
  int64_t int_value = 0;        // kIntConst / kBoolConst(0/1)
  uint32_t var_index = 0;       // kVar: index into arena variable table
  std::vector<Term> operands;   // everything else
};

// Owns all terms; hash-conses structurally identical nodes so Term equality
// is pointer equality. Not thread-safe; each verification session owns one.
class TermArena {
 public:
  TermArena();
  TermArena(const TermArena&) = delete;
  TermArena& operator=(const TermArena&) = delete;

  const TermNode& node(Term t) const {
    DNSV_CHECK(t.valid() && t.id() < nodes_.size());
    return nodes_[t.id()];
  }
  Sort sort(Term t) const { return node(t).sort; }

  // --- Leaf constructors ---
  Term IntConst(int64_t value);
  Term BoolConst(bool value);
  Term True() { return true_; }
  Term False() { return false_; }
  // Creates (or returns the existing) variable with this name.
  Term Var(const std::string& name, Sort sort);
  const std::string& VarName(Term t) const;

  // --- Integer operations (operands must be Int-sorted) ---
  Term Add(Term a, Term b);
  Term Sub(Term a, Term b);
  Term Mul(Term a, Term b);
  Term Div(Term a, Term b);
  Term Mod(Term a, Term b);
  Term Ite(Term cond, Term then_value, Term else_value);

  // --- Comparisons (Int x Int -> Bool) ---
  Term Eq(Term a, Term b);  // dispatches on sort: BoolEq for Bool operands
  Term Ne(Term a, Term b) { return Not(Eq(a, b)); }
  Term Lt(Term a, Term b);
  Term Le(Term a, Term b);
  Term Gt(Term a, Term b) { return Lt(b, a); }
  Term Ge(Term a, Term b) { return Le(b, a); }

  // --- Boolean operations ---
  Term And(Term a, Term b);
  Term AndN(const std::vector<Term>& terms);
  Term Or(Term a, Term b);
  Term OrN(const std::vector<Term>& terms);
  Term Not(Term a);
  Term Implies(Term a, Term b) { return Or(Not(a), b); }

  // Returns true and fills *value when the term is a literal constant.
  bool AsIntConst(Term t, int64_t* value) const;
  bool AsBoolConst(Term t, bool* value) const;

  // Replaces variables (keyed by term id) with replacement terms, rebuilding
  // the expression bottom-up through the simplifying constructors. Used when
  // applying a summary specification: the summary's formal input variables
  // are substituted with the caller's actual terms (§5.3).
  Term Substitute(Term t, const std::unordered_map<uint32_t, Term>& replacements);

  // Human-readable s-expression, for diagnostics and tests.
  std::string ToString(Term t) const;

  size_t size() const { return nodes_.size(); }
  size_t num_vars() const { return var_names_.size(); }
  const std::vector<std::string>& var_names() const { return var_names_; }
  const std::vector<Sort>& var_sorts() const { return var_sorts_; }

 private:
  Term Intern(TermNode node);

  // Hash and equality of the nodes behind two ids: kind, sort, payload and
  // operand ids.
  struct NodeHash {
    const std::vector<TermNode>* nodes;
    size_t operator()(uint32_t id) const;
  };
  struct NodeEq {
    const std::vector<TermNode>* nodes;
    bool operator()(uint32_t a, uint32_t b) const;
  };

  std::vector<TermNode> nodes_;
  std::unordered_set<uint32_t, NodeHash, NodeEq> intern_table_;  // node ids, by structure
  std::unordered_map<std::string, Term> vars_by_name_;
  std::vector<std::string> var_names_;
  std::vector<Sort> var_sorts_;
  Term true_;
  Term false_;
};

// Copies terms from one arena into another, rebuilding bottom-up through the
// destination's simplifying constructors. Variables are carried over by name;
// an optional rename hook maps source variable names to destination names, so
// two isolated worker arenas can be merged into one comparison arena without
// capturing each other's internally generated variables (pad.*, havoc.*, …)
// while still unifying the shared symbolic inputs (qname.*, qtype).
// Memoized per importer; one importer per (source, destination) pair.
class TermImporter {
 public:
  using VarRename = std::function<std::string(const std::string&)>;
  TermImporter(const TermArena* from, TermArena* to, VarRename rename = nullptr)
      : from_(from), to_(to), rename_(std::move(rename)) {}

  Term Import(Term t);

 private:
  const TermArena* from_;
  TermArena* to_;
  VarRename rename_;
  std::unordered_map<uint32_t, Term> memo_;
};

}  // namespace dnsv

#endif  // DNSV_SMT_TERM_H_
