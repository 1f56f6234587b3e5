#include "src/interp/value.h"

#include "src/support/strings.h"

namespace dnsv {

bool Value::operator==(const Value& other) const {
  if (kind != other.kind) {
    return false;
  }
  switch (kind) {
    case Kind::kUnit:
      return true;
    case Kind::kInt:
    case Kind::kBool:
      return i == other.i;
    case Kind::kPtr:
      return block == other.block && path == other.path;
    case Kind::kStruct:
    case Kind::kList:
      return elems == other.elems;
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind) {
    case Kind::kUnit:
      return "unit";
    case Kind::kInt:
      return StrCat(i);
    case Kind::kBool:
      return i != 0 ? "true" : "false";
    case Kind::kPtr: {
      if (IsNullPtr()) {
        return "null";
      }
      std::string out = StrCat("&b", block);
      for (int64_t index : path) {
        out += StrCat(".", index);
      }
      return out;
    }
    case Kind::kStruct: {
      std::string out = "{";
      for (size_t k = 0; k < elems.size(); ++k) {
        if (k > 0) out += ", ";
        out += elems[k].ToString();
      }
      return out + "}";
    }
    case Kind::kList: {
      std::string out = "[";
      for (size_t k = 0; k < elems.size(); ++k) {
        if (k > 0) out += ", ";
        out += elems[k].ToString();
      }
      return out + "]";
    }
  }
  return "<?>";
}

Value ZeroValueOf(const TypeTable& types, Type type) {
  switch (types.kind(type)) {
    case TypeKind::kInt:
      return Value::Int(0);
    case TypeKind::kBool:
      return Value::Bool(false);
    case TypeKind::kPtr:
      return Value::NullPtr();
    case TypeKind::kList:
      return Value::List();
    case TypeKind::kStruct: {
      const StructDef& def = types.GetStruct(type);
      std::vector<Value> fields;
      fields.reserve(def.fields.size());
      for (const StructField& field : def.fields) {
        fields.push_back(ZeroValueOf(types, field.type));
      }
      return Value::Struct(std::move(fields));
    }
    case TypeKind::kVoid:
      return Value::Unit();
  }
  DNSV_CHECK(false);
  return Value::Unit();
}

}  // namespace dnsv
