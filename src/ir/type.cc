#include "src/ir/type.h"

#include <algorithm>

#include "src/support/strings.h"

namespace dnsv {

TypeTable::TypeTable() {
  nodes_.resize(1);  // id 0 invalid
  void_ = Intern({TypeKind::kVoid, Type(), ""}, "void");
  int_ = Intern({TypeKind::kInt, Type(), ""}, "int");
  bool_ = Intern({TypeKind::kBool, Type(), ""}, "bool");
}

Type TypeTable::Intern(TypeNode node, const std::string& key) const {
  auto it = intern_table_.find(key);
  if (it != intern_table_.end()) {
    return Type(it->second);
  }
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  intern_table_.emplace(key, id);
  return Type(id);
}

Type TypeTable::PtrTo(Type pointee) const {
  DNSV_CHECK(pointee.valid());
  return Intern({TypeKind::kPtr, pointee, ""}, StrCat("ptr:", pointee.id()));
}

Type TypeTable::ListOf(Type element) const {
  DNSV_CHECK(element.valid());
  return Intern({TypeKind::kList, element, ""}, StrCat("list:", element.id()));
}

Type TypeTable::StructType(const std::string& name) const {
  return Intern({TypeKind::kStruct, Type(), name}, StrCat("struct:", name));
}

void TypeTable::DefineStruct(const std::string& name, std::vector<StructField> fields) {
  DNSV_CHECK_MSG(structs_.find(name) == structs_.end(), "struct redefined: " + name);
  StructType(name);  // ensure the type handle exists
  structs_.emplace(name, StructDef{name, std::move(fields)});
}

bool TypeTable::IsStructDefined(const std::string& name) const {
  return structs_.find(name) != structs_.end();
}

const StructDef& TypeTable::GetStruct(const std::string& name) const {
  auto it = structs_.find(name);
  DNSV_CHECK_MSG(it != structs_.end(), "undefined struct: " + name);
  return it->second;
}

const StructDef& TypeTable::GetStruct(Type t) const {
  DNSV_CHECK(IsStruct(t));
  return GetStruct(node(t).struct_name);
}

std::vector<const StructDef*> TypeTable::Structs() const {
  std::vector<const StructDef*> out;
  out.reserve(structs_.size());
  for (const auto& [name, def] : structs_) {
    out.push_back(&def);
  }
  std::sort(out.begin(), out.end(),
            [](const StructDef* a, const StructDef* b) { return a->name < b->name; });
  return out;
}

std::string TypeTable::ToString(Type t) const {
  const TypeNode& n = node(t);
  switch (n.kind) {
    case TypeKind::kVoid:
      return "void";
    case TypeKind::kInt:
      return "int";
    case TypeKind::kBool:
      return "bool";
    case TypeKind::kPtr:
      return "*" + ToString(n.element);
    case TypeKind::kList:
      return "[]" + ToString(n.element);
    case TypeKind::kStruct:
      return n.struct_name;
  }
  return "<?>";
}

}  // namespace dnsv
