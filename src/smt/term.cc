#include "src/smt/term.h"

#include <algorithm>

#include "src/support/strings.h"

namespace dnsv {
namespace {

// Go semantics: quotient truncated toward zero; remainder sign follows
// the dividend.
int64_t GoDiv(int64_t a, int64_t b) { return a / b; }
int64_t GoMod(int64_t a, int64_t b) { return a % b; }

}  // namespace

size_t TermArena::NodeHash::operator()(uint32_t id) const {
  const TermNode& node = (*nodes)[id];
  uint64_t h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(node.operands.data()),
                                        node.operands.size() * sizeof(Term)));
  h = (h ^ (static_cast<uint64_t>(node.kind) << 8 | static_cast<uint64_t>(node.sort))) *
      0x100000001b3ULL;
  h = (h ^ static_cast<uint64_t>(node.int_value)) * 0x100000001b3ULL;
  h = (h ^ node.var_index) * 0x100000001b3ULL;
  return static_cast<size_t>(h);
}

bool TermArena::NodeEq::operator()(uint32_t a, uint32_t b) const {
  const TermNode& x = (*nodes)[a];
  const TermNode& y = (*nodes)[b];
  return x.kind == y.kind && x.sort == y.sort && x.int_value == y.int_value &&
         x.var_index == y.var_index && x.operands == y.operands;
}

TermArena::TermArena() : intern_table_(64, NodeHash{&nodes_}, NodeEq{&nodes_}) {
  nodes_.resize(1);  // id 0 = invalid sentinel
  true_ = BoolConst(true);
  false_ = BoolConst(false);
}

// The candidate goes in at the next id and is taken back out when the table
// already holds a node equal to it.
Term TermArena::Intern(TermNode node) {
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  auto [it, inserted] = intern_table_.insert(id);
  if (!inserted) {
    nodes_.pop_back();
    return Term(*it);
  }
  return Term(id);
}

Term TermArena::IntConst(int64_t value) {
  TermNode node;
  node.kind = TermKind::kIntConst;
  node.sort = Sort::kInt;
  node.int_value = value;
  return Intern(std::move(node));
}

Term TermArena::BoolConst(bool value) {
  TermNode node;
  node.kind = TermKind::kBoolConst;
  node.sort = Sort::kBool;
  node.int_value = value ? 1 : 0;
  return Intern(std::move(node));
}

Term TermArena::Var(const std::string& name, Sort sort) {
  auto it = vars_by_name_.find(name);
  if (it != vars_by_name_.end()) {
    DNSV_CHECK_MSG(this->sort(it->second) == sort, "variable re-declared at different sort: " + name);
    return it->second;
  }
  TermNode node;
  node.kind = TermKind::kVar;
  node.sort = sort;
  node.var_index = static_cast<uint32_t>(var_names_.size());
  var_names_.push_back(name);
  var_sorts_.push_back(sort);
  Term t = Intern(std::move(node));
  vars_by_name_.emplace(name, t);
  return t;
}

const std::string& TermArena::VarName(Term t) const {
  const TermNode& n = node(t);
  DNSV_CHECK(n.kind == TermKind::kVar);
  return var_names_[n.var_index];
}

bool TermArena::AsIntConst(Term t, int64_t* value) const {
  const TermNode& n = node(t);
  if (n.kind != TermKind::kIntConst) {
    return false;
  }
  *value = n.int_value;
  return true;
}

bool TermArena::AsBoolConst(Term t, bool* value) const {
  const TermNode& n = node(t);
  if (n.kind != TermKind::kBoolConst) {
    return false;
  }
  *value = n.int_value != 0;
  return true;
}

Term TermArena::Add(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(a, &ca) && AsIntConst(b, &cb)) {
    return IntConst(ca + cb);
  }
  if (AsIntConst(a, &ca) && ca == 0) {
    return b;
  }
  if (AsIntConst(b, &cb) && cb == 0) {
    return a;
  }
  TermNode node;
  node.kind = TermKind::kAdd;
  node.sort = Sort::kInt;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Sub(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(a, &ca) && AsIntConst(b, &cb)) {
    return IntConst(ca - cb);
  }
  if (AsIntConst(b, &cb) && cb == 0) {
    return a;
  }
  if (a == b) {
    return IntConst(0);
  }
  TermNode node;
  node.kind = TermKind::kSub;
  node.sort = Sort::kInt;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Mul(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(a, &ca) && AsIntConst(b, &cb)) {
    return IntConst(ca * cb);
  }
  if (AsIntConst(a, &ca)) {
    if (ca == 0) return IntConst(0);
    if (ca == 1) return b;
  }
  if (AsIntConst(b, &cb)) {
    if (cb == 0) return IntConst(0);
    if (cb == 1) return a;
  }
  TermNode node;
  node.kind = TermKind::kMul;
  node.sort = Sort::kInt;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Div(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(b, &cb)) {
    DNSV_CHECK_MSG(cb != 0, "constant division by zero must be guarded by a panic block");
    if (AsIntConst(a, &ca)) {
      return IntConst(GoDiv(ca, cb));
    }
    if (cb == 1) {
      return a;
    }
  }
  TermNode node;
  node.kind = TermKind::kDiv;
  node.sort = Sort::kInt;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Mod(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(b, &cb)) {
    DNSV_CHECK_MSG(cb != 0, "constant mod by zero must be guarded by a panic block");
    if (AsIntConst(a, &ca)) {
      return IntConst(GoMod(ca, cb));
    }
  }
  TermNode node;
  node.kind = TermKind::kMod;
  node.sort = Sort::kInt;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Ite(Term cond, Term then_value, Term else_value) {
  DNSV_CHECK(sort(cond) == Sort::kBool);
  DNSV_CHECK(sort(then_value) == sort(else_value));
  bool cc;
  if (AsBoolConst(cond, &cc)) {
    return cc ? then_value : else_value;
  }
  if (then_value == else_value) {
    return then_value;
  }
  TermNode node;
  node.kind = TermKind::kIte;
  node.sort = sort(then_value);
  node.operands = {cond, then_value, else_value};
  return Intern(std::move(node));
}

Term TermArena::Eq(Term a, Term b) {
  DNSV_CHECK(sort(a) == sort(b));
  if (a == b) {
    return True();
  }
  if (sort(a) == Sort::kBool) {
    bool ca, cb;
    if (AsBoolConst(a, &ca) && AsBoolConst(b, &cb)) {
      return BoolConst(ca == cb);
    }
    if (AsBoolConst(a, &ca)) {
      return ca ? b : Not(b);
    }
    if (AsBoolConst(b, &cb)) {
      return cb ? a : Not(a);
    }
    TermNode node;
    node.kind = TermKind::kBoolEq;
    node.sort = Sort::kBool;
    node.operands = {a, b};
    return Intern(std::move(node));
  }
  int64_t ca, cb;
  if (AsIntConst(a, &ca) && AsIntConst(b, &cb)) {
    return BoolConst(ca == cb);
  }
  // Canonical operand order so Eq(a,b) and Eq(b,a) intern identically.
  if (b.id() < a.id()) {
    std::swap(a, b);
  }
  TermNode node;
  node.kind = TermKind::kEq;
  node.sort = Sort::kBool;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Lt(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(a, &ca) && AsIntConst(b, &cb)) {
    return BoolConst(ca < cb);
  }
  if (a == b) {
    return False();
  }
  TermNode node;
  node.kind = TermKind::kLt;
  node.sort = Sort::kBool;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::Le(Term a, Term b) {
  DNSV_CHECK(sort(a) == Sort::kInt && sort(b) == Sort::kInt);
  int64_t ca, cb;
  if (AsIntConst(a, &ca) && AsIntConst(b, &cb)) {
    return BoolConst(ca <= cb);
  }
  if (a == b) {
    return True();
  }
  TermNode node;
  node.kind = TermKind::kLe;
  node.sort = Sort::kBool;
  node.operands = {a, b};
  return Intern(std::move(node));
}

Term TermArena::And(Term a, Term b) { return AndN({a, b}); }

Term TermArena::AndN(const std::vector<Term>& terms) {
  std::vector<Term> flat;
  for (Term t : terms) {
    DNSV_CHECK(sort(t) == Sort::kBool);
    bool c;
    if (AsBoolConst(t, &c)) {
      if (!c) {
        return False();
      }
      continue;  // drop true
    }
    const TermNode& n = node(t);
    if (n.kind == TermKind::kAnd) {
      flat.insert(flat.end(), n.operands.begin(), n.operands.end());
    } else {
      flat.push_back(t);
    }
  }
  // Dedup while preserving order.
  std::vector<Term> unique;
  for (Term t : flat) {
    if (std::find(unique.begin(), unique.end(), t) == unique.end()) {
      unique.push_back(t);
    }
  }
  if (unique.empty()) {
    return True();
  }
  if (unique.size() == 1) {
    return unique[0];
  }
  // p /\ !p == false (common from branch conditions).
  for (Term t : unique) {
    const TermNode& n = node(t);
    if (n.kind == TermKind::kNot &&
        std::find(unique.begin(), unique.end(), n.operands[0]) != unique.end()) {
      return False();
    }
  }
  TermNode node;
  node.kind = TermKind::kAnd;
  node.sort = Sort::kBool;
  node.operands = std::move(unique);
  return Intern(std::move(node));
}

Term TermArena::Or(Term a, Term b) { return OrN({a, b}); }

Term TermArena::OrN(const std::vector<Term>& terms) {
  std::vector<Term> flat;
  for (Term t : terms) {
    DNSV_CHECK(sort(t) == Sort::kBool);
    bool c;
    if (AsBoolConst(t, &c)) {
      if (c) {
        return True();
      }
      continue;  // drop false
    }
    const TermNode& n = node(t);
    if (n.kind == TermKind::kOr) {
      flat.insert(flat.end(), n.operands.begin(), n.operands.end());
    } else {
      flat.push_back(t);
    }
  }
  std::vector<Term> unique;
  for (Term t : flat) {
    if (std::find(unique.begin(), unique.end(), t) == unique.end()) {
      unique.push_back(t);
    }
  }
  if (unique.empty()) {
    return False();
  }
  if (unique.size() == 1) {
    return unique[0];
  }
  for (Term t : unique) {
    const TermNode& n = node(t);
    if (n.kind == TermKind::kNot &&
        std::find(unique.begin(), unique.end(), n.operands[0]) != unique.end()) {
      return True();
    }
  }
  TermNode node;
  node.kind = TermKind::kOr;
  node.sort = Sort::kBool;
  node.operands = std::move(unique);
  return Intern(std::move(node));
}

Term TermArena::Not(Term a) {
  DNSV_CHECK(sort(a) == Sort::kBool);
  bool c;
  if (AsBoolConst(a, &c)) {
    return BoolConst(!c);
  }
  const TermNode& n = node(a);
  if (n.kind == TermKind::kNot) {
    return n.operands[0];
  }
  TermNode node;
  node.kind = TermKind::kNot;
  node.sort = Sort::kBool;
  node.operands = {a};
  return Intern(std::move(node));
}

Term TermArena::Substitute(Term t, const std::unordered_map<uint32_t, Term>& replacements) {
  auto direct = replacements.find(t.id());
  if (direct != replacements.end()) {
    return direct->second;
  }
  const TermNode n = node(t);  // copy: nodes_ may grow during rebuilding
  switch (n.kind) {
    case TermKind::kIntConst:
    case TermKind::kBoolConst:
    case TermKind::kVar:
      return t;
    default:
      break;
  }
  std::vector<Term> new_operands;
  new_operands.reserve(n.operands.size());
  bool changed = false;
  for (Term op : n.operands) {
    Term replaced = Substitute(op, replacements);
    changed = changed || replaced != op;
    new_operands.push_back(replaced);
  }
  if (!changed) {
    return t;
  }
  switch (n.kind) {
    case TermKind::kAdd: return Add(new_operands[0], new_operands[1]);
    case TermKind::kSub: return Sub(new_operands[0], new_operands[1]);
    case TermKind::kMul: return Mul(new_operands[0], new_operands[1]);
    case TermKind::kDiv: return Div(new_operands[0], new_operands[1]);
    case TermKind::kMod: return Mod(new_operands[0], new_operands[1]);
    case TermKind::kEq:
    case TermKind::kBoolEq: return Eq(new_operands[0], new_operands[1]);
    case TermKind::kLt: return Lt(new_operands[0], new_operands[1]);
    case TermKind::kLe: return Le(new_operands[0], new_operands[1]);
    case TermKind::kAnd: return AndN(new_operands);
    case TermKind::kOr: return OrN(new_operands);
    case TermKind::kNot: return Not(new_operands[0]);
    case TermKind::kIte: return Ite(new_operands[0], new_operands[1], new_operands[2]);
    default:
      DNSV_CHECK(false);
      return t;
  }
}

std::string TermArena::ToString(Term t) const {
  const TermNode& n = node(t);
  auto nary = [&](const char* op) {
    std::string out = StrCat("(", op);
    for (Term child : n.operands) {
      out += " " + ToString(child);
    }
    out += ")";
    return out;
  };
  switch (n.kind) {
    case TermKind::kIntConst:
      return StrCat(n.int_value);
    case TermKind::kBoolConst:
      return n.int_value != 0 ? "true" : "false";
    case TermKind::kVar:
      return var_names_[n.var_index];
    case TermKind::kAdd:
      return nary("+");
    case TermKind::kSub:
      return nary("-");
    case TermKind::kMul:
      return nary("*");
    case TermKind::kDiv:
      return nary("div");
    case TermKind::kMod:
      return nary("mod");
    case TermKind::kEq:
    case TermKind::kBoolEq:
      return nary("=");
    case TermKind::kLt:
      return nary("<");
    case TermKind::kLe:
      return nary("<=");
    case TermKind::kAnd:
      return nary("and");
    case TermKind::kOr:
      return nary("or");
    case TermKind::kNot:
      return nary("not");
    case TermKind::kIte:
      return nary("ite");
  }
  return "<?>";
}

Term TermImporter::Import(Term t) {
  DNSV_CHECK(t.valid());
  auto memo_it = memo_.find(t.id());
  if (memo_it != memo_.end()) {
    return memo_it->second;
  }
  const TermNode& n = from_->node(t);
  auto op = [&](size_t i) { return Import(n.operands[i]); };
  Term result;
  switch (n.kind) {
    case TermKind::kIntConst:
      result = to_->IntConst(n.int_value);
      break;
    case TermKind::kBoolConst:
      result = to_->BoolConst(n.int_value != 0);
      break;
    case TermKind::kVar: {
      const std::string& name = from_->VarName(t);
      result = to_->Var(rename_ ? rename_(name) : name, n.sort);
      break;
    }
    case TermKind::kAdd:
      result = to_->Add(op(0), op(1));
      break;
    case TermKind::kSub:
      result = to_->Sub(op(0), op(1));
      break;
    case TermKind::kMul:
      result = to_->Mul(op(0), op(1));
      break;
    case TermKind::kDiv:
      result = to_->Div(op(0), op(1));
      break;
    case TermKind::kMod:
      result = to_->Mod(op(0), op(1));
      break;
    case TermKind::kEq:
    case TermKind::kBoolEq:
      result = to_->Eq(op(0), op(1));
      break;
    case TermKind::kLt:
      result = to_->Lt(op(0), op(1));
      break;
    case TermKind::kLe:
      result = to_->Le(op(0), op(1));
      break;
    case TermKind::kAnd: {
      std::vector<Term> ops;
      ops.reserve(n.operands.size());
      for (size_t i = 0; i < n.operands.size(); ++i) ops.push_back(op(i));
      result = to_->AndN(ops);
      break;
    }
    case TermKind::kOr: {
      std::vector<Term> ops;
      ops.reserve(n.operands.size());
      for (size_t i = 0; i < n.operands.size(); ++i) ops.push_back(op(i));
      result = to_->OrN(ops);
      break;
    }
    case TermKind::kNot:
      result = to_->Not(op(0));
      break;
    case TermKind::kIte:
      result = to_->Ite(op(0), op(1), op(2));
      break;
  }
  memo_.emplace(t.id(), result);
  return result;
}

}  // namespace dnsv
