// AbsIR type system (paper Fig. 7).
//
// Types mirror the paper's AbsLLVM: Int, Bool, typed pointers, named structs
// (circular references allowed, e.g. TreeNode pointing to TreeNode), and
// List[T] — an abstract list that has no concrete LLVM counterpart. Lists have
// *value* semantics in AbsIR (loading a List-typed field copies it); the
// MiniGo frontend compiles Go-style `x = append(x, e)` into load/append/store,
// which is exactly the effect pattern summarization recognizes (§5.3).
#ifndef DNSV_IR_TYPE_H_
#define DNSV_IR_TYPE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/logging.h"

namespace dnsv {

enum class TypeKind : uint8_t { kVoid, kInt, kBool, kPtr, kList, kStruct };

// Interned handle into a TypeTable. Equality is identity.
class Type {
 public:
  Type() = default;
  explicit Type(uint32_t id) : id_(id) {}
  uint32_t id() const { return id_; }
  bool valid() const { return id_ != 0; }
  bool operator==(const Type& other) const { return id_ == other.id_; }
  bool operator!=(const Type& other) const { return id_ != other.id_; }

 private:
  uint32_t id_ = 0;
};

struct StructField {
  std::string name;
  Type type;
};

struct TypeNode {
  TypeKind kind;
  Type element;             // kPtr pointee / kList element
  std::string struct_name;  // kStruct
};

// Declared separately from the type node so struct bodies can reference
// themselves (directly or mutually) through pointers.
struct StructDef {
  std::string name;
  std::vector<StructField> fields;

  // Returns the index of `field_name`, or -1.
  int FieldIndex(const std::string& field_name) const {
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name == field_name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

class TypeTable {
 public:
  TypeTable();
  TypeTable(const TypeTable&) = delete;
  TypeTable& operator=(const TypeTable&) = delete;

  Type VoidType() const { return void_; }
  Type IntType() const { return int_; }
  Type BoolType() const { return bool_; }
  Type PtrTo(Type pointee) const;
  Type ListOf(Type element) const;
  // Returns the (unique) struct type handle for `name`, creating a forward
  // declaration on first use. Fields are attached via DefineStruct.
  Type StructType(const std::string& name) const;

  // Declares or completes the field list of a struct.
  void DefineStruct(const std::string& name, std::vector<StructField> fields);
  bool IsStructDefined(const std::string& name) const;
  const StructDef& GetStruct(const std::string& name) const;
  const StructDef& GetStruct(Type t) const;
  // Every defined struct, in name order.
  std::vector<const StructDef*> Structs() const;

  const TypeNode& node(Type t) const {
    DNSV_CHECK(t.valid() && t.id() < nodes_.size());
    return nodes_[t.id()];
  }
  TypeKind kind(Type t) const { return node(t).kind; }
  bool IsPtr(Type t) const { return kind(t) == TypeKind::kPtr; }
  bool IsList(Type t) const { return kind(t) == TypeKind::kList; }
  bool IsStruct(Type t) const { return kind(t) == TypeKind::kStruct; }
  Type Pointee(Type t) const {
    DNSV_CHECK(IsPtr(t));
    return node(t).element;
  }
  Type ListElement(Type t) const {
    DNSV_CHECK(IsList(t));
    return node(t).element;
  }

  std::string ToString(Type t) const;

 private:
  Type Intern(TypeNode node, const std::string& key) const;

  mutable std::vector<TypeNode> nodes_;
  mutable std::unordered_map<std::string, uint32_t> intern_table_;
  std::unordered_map<std::string, StructDef> structs_;
  Type void_, int_, bool_;
};

}  // namespace dnsv

#endif  // DNSV_IR_TYPE_H_
