// Symbolic runtime values and memory (paper §5.1's flexible memory model).
//
// SymValue mirrors interp::Value but scalar leaves are SMT terms, so a struct
// can be *partially* abstract: some fields concrete (IntConst terms), others
// symbolic variables — exactly the mixed state the paper needs for
// imperfectly encapsulated data structures (Fig. 3).
//
// Lists follow §5.4's encoding: a fixed vector of element slots plus a
// symbolic length term.
//
// Values are persistent (src/sym/shared.h): struct fields and list slots
// sit behind an immutable shared node, and a pointer's index path is stored
// inline, so copying a value — into a register, a forked path, a summary
// application — copies no aggregate. SymMemory is a persistent block table:
// a fork copies one handle, and a store copies only the spine from the
// block's root to the changed field.
#ifndef DNSV_SYM_SYMVALUE_H_
#define DNSV_SYM_SYMVALUE_H_

#include <array>
#include <initializer_list>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/interp/value.h"
#include "src/ir/type.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"
#include "src/sym/shared.h"

namespace dnsv {

struct SymValue;

// A pointer's index path from its block's root, stored inline: pointers are
// copied on every load and GEP. Longer paths than any engine type nests
// throw DnsvError.
class SymPath {
 public:
  static constexpr size_t kMaxDepth = 6;

  SymPath() = default;
  SymPath(std::initializer_list<int64_t> indices);
  explicit SymPath(const std::vector<int64_t>& indices);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int64_t operator[](size_t i) const { return indices_[i]; }
  const int64_t* begin() const { return indices_.data(); }
  const int64_t* end() const { return indices_.data() + size_; }
  void push_back(int64_t index);

  bool operator==(const SymPath& other) const;

 private:
  std::array<int64_t, kMaxDepth> indices_{};
  uint8_t size_ = 0;
};

// The fields of a struct or the element slots of a list: an immutable node
// shared by every value that copies it. Mutable() and PushBack() copy the
// node first unless this handle is its only owner.
class SymElems {
 public:
  SymElems() = default;
  SymElems(std::vector<SymValue> items);  // NOLINT: implicit, like the vector it replaces
  SymElems(std::initializer_list<SymValue> items);
  SymElems(const SymElems& other);
  SymElems(SymElems&& other) noexcept;
  SymElems& operator=(const SymElems& other);
  SymElems& operator=(SymElems&& other) noexcept;
  ~SymElems();

  size_t size() const;
  bool empty() const { return size() == 0; }
  const SymValue& operator[](size_t i) const;
  const SymValue* begin() const;
  const SymValue* end() const;
  std::reverse_iterator<const SymValue*> rbegin() const {
    return std::reverse_iterator<const SymValue*>(end());
  }
  std::reverse_iterator<const SymValue*> rend() const {
    return std::reverse_iterator<const SymValue*>(begin());
  }

  SymValue* Mutable(size_t i);
  void PushBack(SymValue value);

  // Identity of the shared node (nullptr when empty): two values with the
  // same id hold the very same fields.
  const void* id() const { return node_.get(); }

 private:
  struct Node;
  Shared<Node> node_;
};

struct SymValue {
  enum class Kind : uint8_t { kUnit, kTerm, kPtr, kStruct, kList };

  Kind kind = Kind::kUnit;
  Term term;                           // kTerm (int- or bool-sorted)
  Term list_len;                       // kList total length (Int term)
  BlockIndex block = kNullBlockIndex;  // kPtr (pointers are always concrete)
  SymPath path;                        // kPtr index path
  SymElems elems;                      // kStruct fields / kList element slots

  static SymValue Unit() { return SymValue{}; }
  static SymValue OfTerm(Term t) {
    SymValue v;
    v.kind = Kind::kTerm;
    v.term = t;
    return v;
  }
  static SymValue NullPtr() {
    SymValue v;
    v.kind = Kind::kPtr;
    v.block = kNullBlockIndex;
    return v;
  }
  static SymValue Ptr(BlockIndex block, SymPath path = {}) {
    SymValue v;
    v.kind = Kind::kPtr;
    v.block = block;
    v.path = path;
    return v;
  }
  static SymValue Struct(SymElems fields) {
    SymValue v;
    v.kind = Kind::kStruct;
    v.elems = std::move(fields);
    return v;
  }
  // A concrete-length list (len is derived from elems).
  static SymValue List(SymElems elements, TermArena* arena) {
    SymValue v;
    v.kind = Kind::kList;
    v.list_len = arena->IntConst(static_cast<int64_t>(elements.size()));
    v.elems = std::move(elements);
    return v;
  }

  bool IsNullPtr() const { return kind == Kind::kPtr && block == kNullBlockIndex; }

  // Shallow identity: same kind, leaves and shared node. Identical values
  // are equal; equal values built apart need not be identical.
  bool SameAs(const SymValue& other) const {
    return kind == other.kind && term == other.term && list_len == other.list_len &&
           block == other.block && path == other.path && elems.id() == other.elems.id();
  }

  std::string ToString(const TermArena& arena) const;
};

struct SymElems::Node : RefCounted {
  std::vector<SymValue> items;
};

inline SymElems::SymElems(const SymElems& other) = default;
inline SymElems::SymElems(SymElems&& other) noexcept = default;
inline SymElems& SymElems::operator=(const SymElems& other) = default;
inline SymElems& SymElems::operator=(SymElems&& other) noexcept = default;
inline SymElems::~SymElems() = default;
inline SymElems::SymElems(std::vector<SymValue> items) {
  if (!items.empty()) {
    node_ = Shared<Node>(new Node);
    node_.Mutable()->items = std::move(items);
  }
}
inline SymElems::SymElems(std::initializer_list<SymValue> items)
    : SymElems(std::vector<SymValue>(items)) {}
inline size_t SymElems::size() const { return node_ ? node_->items.size() : 0; }
inline const SymValue& SymElems::operator[](size_t i) const { return node_->items[i]; }
inline const SymValue* SymElems::begin() const {
  return node_ ? node_->items.data() : nullptr;
}
inline const SymValue* SymElems::end() const {
  return node_ ? node_->items.data() + node_->items.size() : nullptr;
}
inline SymValue* SymElems::Mutable(size_t i) { return &node_.Mutable()->items[i]; }
inline void SymElems::PushBack(SymValue value) {
  if (!node_) node_ = Shared<Node>(new Node);
  node_.Mutable()->items.push_back(std::move(value));
}

// Symbolic memory: block id -> SymValue tree. Block 0 is the null target.
// Copies share every block; Alloc and Store copy what they change.
class SymMemory {
 public:
  BlockIndex Alloc(SymValue initial) {
    return static_cast<BlockIndex>(blocks_.PushBack(std::move(initial)) + 1);
  }

  // The value at (block, path), or nullptr when it does not resolve. The
  // pointer is valid until this memory is next written.
  const SymValue* Resolve(BlockIndex block, const SymPath& path) const;

  // Replaces the value at (block, path), copying the shared nodes from the
  // block's root down to it. False (and no change) when it does not resolve.
  bool Store(BlockIndex block, const SymPath& path, SymValue value);

  size_t num_blocks() const { return blocks_.size() + 1; }

 private:
  CowVector<SymValue> blocks_;  // block b at index b - 1
};

// Lifts a concrete interpreter value into the symbolic domain (all leaves
// become constant terms). Used to load the concrete domain-tree heap (§6.5).
SymValue LiftValue(const Value& value, TermArena* arena);

// Lifts an entire concrete memory into a SymMemory (block ids preserved).
SymMemory LiftMemory(const ConcreteMemory& memory, TermArena* arena);

// The symbolic zero value of `type` (concrete-zero leaves).
SymValue SymZeroValue(const TypeTable& types, Type type, TermArena* arena);

// Lowers a fully-concrete SymValue back to an interpreter Value; CHECK-fails
// on symbolic leaves. `model` (optional) supplies values for variables.
Value ConcretizeValue(const SymValue& value, const TermArena& arena, const Model* model);

// Rebuilds values with every term leaf routed through a TermImporter, so a
// value produced in one worker's arena can be used in another arena. Block
// indices are preserved (both arenas were lifted from the same concrete
// heap). Memoized per shared node: a sub-tree that several values (or
// several paths) share is imported once and stays shared in the result.
class SymValueImporter {
 public:
  explicit SymValueImporter(TermImporter* terms) : terms_(terms) {}

  SymValue Import(const SymValue& value);

 private:
  TermImporter* terms_;
  // Source node -> (source handle, kept alive so its address stays unique;
  // imported node).
  std::unordered_map<const void*, std::pair<SymElems, SymElems>> memo_;
};

}  // namespace dnsv

#endif  // DNSV_SYM_SYMVALUE_H_
