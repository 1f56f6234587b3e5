// Concrete runtime values and the block-based memory model (paper §5.1).
//
// Memory is a set of non-overlapping blocks addressed by block id; pointers
// carry a block id plus a list of indices (CompCert-style, no byte offsets).
// Blocks hold value trees: structs are field vectors, lists are element
// vectors. The same layout is mirrored symbolically in src/sym, which is what
// lets abstract and concrete state mix freely.
#ifndef DNSV_INTERP_VALUE_H_
#define DNSV_INTERP_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/type.h"
#include "src/support/logging.h"

namespace dnsv {

using BlockIndex = uint32_t;
inline constexpr BlockIndex kNullBlockIndex = 0;  // block 0 is reserved: the null target

struct Value {
  enum class Kind : uint8_t { kUnit, kInt, kBool, kPtr, kStruct, kList };

  Kind kind = Kind::kUnit;
  int64_t i = 0;                   // kInt payload / kBool (0 or 1)
  BlockIndex block = kNullBlockIndex;  // kPtr target block (null if kNullBlockIndex)
  std::vector<int64_t> path;       // kPtr index path within the block
  std::vector<Value> elems;        // kStruct fields / kList elements

  static Value Unit() { return Value{}; }
  static Value Int(int64_t v) {
    Value value;
    value.kind = Kind::kInt;
    value.i = v;
    return value;
  }
  static Value Bool(bool v) {
    Value value;
    value.kind = Kind::kBool;
    value.i = v ? 1 : 0;
    return value;
  }
  static Value NullPtr() {
    Value value;
    value.kind = Kind::kPtr;
    value.block = kNullBlockIndex;
    return value;
  }
  static Value Ptr(BlockIndex block, std::vector<int64_t> path = {}) {
    Value value;
    value.kind = Kind::kPtr;
    value.block = block;
    value.path = std::move(path);
    return value;
  }
  static Value Struct(std::vector<Value> fields) {
    Value value;
    value.kind = Kind::kStruct;
    value.elems = std::move(fields);
    return value;
  }
  static Value List(std::vector<Value> elements = {}) {
    Value value;
    value.kind = Kind::kList;
    value.elems = std::move(elements);
    return value;
  }

  bool IsNullPtr() const { return kind == Kind::kPtr && block == kNullBlockIndex; }

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  std::string ToString() const;
};

// Builds the Go zero value of `type`: 0 / false / nil / empty list / zeroed
// struct (recursively).
Value ZeroValueOf(const TypeTable& types, Type type);

// Concrete memory: block id -> value tree. Block 0 is reserved for null.
class ConcreteMemory {
 public:
  ConcreteMemory() { blocks_.resize(1); }

  BlockIndex Alloc(Value initial) {
    blocks_.push_back(std::move(initial));
    return static_cast<BlockIndex>(blocks_.size() - 1);
  }

  // Navigates the `len` indices at `path` inside `block`; returns nullptr
  // when the path does not resolve (e.g. list index out of the current
  // length).
  Value* Resolve(BlockIndex block, const int64_t* path, size_t len) {
    if (block == kNullBlockIndex || block >= blocks_.size()) {
      return nullptr;
    }
    Value* current = &blocks_[block];
    for (size_t k = 0; k < len; ++k) {
      if (current->kind != Value::Kind::kStruct && current->kind != Value::Kind::kList) {
        return nullptr;
      }
      const int64_t index = path[k];
      if (index < 0 || static_cast<size_t>(index) >= current->elems.size()) {
        return nullptr;
      }
      current = &current->elems[static_cast<size_t>(index)];
    }
    return current;
  }
  Value* Resolve(BlockIndex block, const std::vector<int64_t>& path) {
    return Resolve(block, path.data(), path.size());
  }
  const Value* Resolve(BlockIndex block, const std::vector<int64_t>& path) const {
    return const_cast<ConcreteMemory*>(this)->Resolve(block, path);
  }

  size_t num_blocks() const { return blocks_.size(); }

  // Frees every block allocated after the watermark (a prior num_blocks()
  // reading). The engine facade uses this to reclaim query-scoped garbage
  // once a response has been decoded: a resolve run is a pure lookup, so
  // nothing durable can point at blocks it allocated. Any stale pointer a
  // bug *did* leave behind fails closed — Resolve bounds-checks the block
  // index and returns nullptr, the same "invalid memory access" a dangling
  // pointer always produced.
  void TruncateTo(size_t watermark) {
    DNSV_CHECK(watermark >= 1 && watermark <= blocks_.size());
    blocks_.resize(watermark);
  }

 private:
  std::vector<Value> blocks_;
};

}  // namespace dnsv

#endif  // DNSV_INTERP_VALUE_H_
