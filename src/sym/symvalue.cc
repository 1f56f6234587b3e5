#include "src/sym/symvalue.h"

#include <algorithm>

#include "src/support/status.h"
#include "src/support/strings.h"

namespace dnsv {

std::string SymValue::ToString(const TermArena& arena) const {
  switch (kind) {
    case Kind::kUnit:
      return "unit";
    case Kind::kTerm:
      return arena.ToString(term);
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
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += elems[i].ToString(arena);
      }
      return out + "}";
    }
    case Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < elems.size(); ++i) {
        out += i == 0 ? "" : " ";
        out += elems[i].ToString(arena);
      }
      out += StrCat("; len=", arena.ToString(list_len), "]");
      return out;
    }
  }
  return "<?>";
}

SymPath::SymPath(std::initializer_list<int64_t> indices) {
  for (int64_t index : indices) push_back(index);
}

SymPath::SymPath(const std::vector<int64_t>& indices) {
  for (int64_t index : indices) push_back(index);
}

void SymPath::push_back(int64_t index) {
  if (size_ == kMaxDepth) {
    throw DnsvError(StrCat("pointer path deeper than ", kMaxDepth, " indices"));
  }
  indices_[size_++] = index;
}

bool SymPath::operator==(const SymPath& other) const {
  return size_ == other.size_ && std::equal(begin(), end(), other.begin());
}

namespace {

// True when `value` is an aggregate with an element at `index`.
bool InRange(const SymValue& value, int64_t index) {
  return (value.kind == SymValue::Kind::kStruct || value.kind == SymValue::Kind::kList) &&
         index >= 0 && static_cast<size_t>(index) < value.elems.size();
}

}  // namespace

const SymValue* SymMemory::Resolve(BlockIndex block, const SymPath& path) const {
  if (block == kNullBlockIndex) {
    return nullptr;
  }
  const SymValue* current = blocks_.Find(block - 1);
  if (current == nullptr) {
    return nullptr;
  }
  for (int64_t index : path) {
    if (!InRange(*current, index)) {
      return nullptr;
    }
    current = &current->elems[static_cast<size_t>(index)];
  }
  return current;
}

bool SymMemory::Store(BlockIndex block, const SymPath& path, SymValue value) {
  if (Resolve(block, path) == nullptr) {
    return false;
  }
  SymValue* current = blocks_.Mutable(block - 1);
  for (int64_t index : path) {
    current = current->elems.Mutable(static_cast<size_t>(index));
  }
  *current = std::move(value);
  return true;
}

SymValue LiftValue(const Value& value, TermArena* arena) {
  switch (value.kind) {
    case Value::Kind::kUnit:
      return SymValue::Unit();
    case Value::Kind::kInt:
      return SymValue::OfTerm(arena->IntConst(value.i));
    case Value::Kind::kBool:
      return SymValue::OfTerm(arena->BoolConst(value.i != 0));
    case Value::Kind::kPtr:
      return SymValue::Ptr(value.block, SymPath(value.path));
    case Value::Kind::kStruct: {
      std::vector<SymValue> fields;
      fields.reserve(value.elems.size());
      for (const Value& field : value.elems) {
        fields.push_back(LiftValue(field, arena));
      }
      return SymValue::Struct(std::move(fields));
    }
    case Value::Kind::kList: {
      std::vector<SymValue> elements;
      elements.reserve(value.elems.size());
      for (const Value& element : value.elems) {
        elements.push_back(LiftValue(element, arena));
      }
      return SymValue::List(std::move(elements), arena);
    }
  }
  DNSV_CHECK(false);
  return SymValue::Unit();
}

SymMemory LiftMemory(const ConcreteMemory& memory, TermArena* arena) {
  SymMemory lifted;
  for (BlockIndex b = 1; b < memory.num_blocks(); ++b) {
    const Value* block = memory.Resolve(b, {});
    DNSV_CHECK(block != nullptr);
    BlockIndex assigned = lifted.Alloc(LiftValue(*block, arena));
    DNSV_CHECK(assigned == b);  // ids preserved so pointers stay valid
  }
  return lifted;
}

SymValue SymZeroValue(const TypeTable& types, Type type, TermArena* arena) {
  switch (types.kind(type)) {
    case TypeKind::kInt:
      return SymValue::OfTerm(arena->IntConst(0));
    case TypeKind::kBool:
      return SymValue::OfTerm(arena->BoolConst(false));
    case TypeKind::kPtr:
      return SymValue::NullPtr();
    case TypeKind::kList:
      return SymValue::List({}, arena);
    case TypeKind::kStruct: {
      const StructDef& def = types.GetStruct(type);
      std::vector<SymValue> fields;
      fields.reserve(def.fields.size());
      for (const StructField& field : def.fields) {
        fields.push_back(SymZeroValue(types, field.type, arena));
      }
      return SymValue::Struct(std::move(fields));
    }
    case TypeKind::kVoid:
      return SymValue::Unit();
  }
  DNSV_CHECK(false);
  return SymValue::Unit();
}

namespace {

int64_t TermToConcrete(Term t, const TermArena& arena, const Model* model) {
  int64_t value = 0;
  if (arena.AsIntConst(t, &value)) {
    return value;
  }
  bool b = false;
  if (arena.AsBoolConst(t, &b)) {
    return b ? 1 : 0;
  }
  const TermNode& node = arena.node(t);
  if (node.kind == TermKind::kVar && model != nullptr) {
    int64_t v = 0;
    if (model->Get(arena.VarName(t), &v)) {
      return v;
    }
    return 0;  // unconstrained variable: any value works
  }
  DNSV_CHECK_MSG(false, "cannot concretize term: " + arena.ToString(t));
  return 0;
}

}  // namespace

Value ConcretizeValue(const SymValue& value, const TermArena& arena, const Model* model) {
  switch (value.kind) {
    case SymValue::Kind::kUnit:
      return Value::Unit();
    case SymValue::Kind::kTerm: {
      int64_t v = TermToConcrete(value.term, arena, model);
      return arena.sort(value.term) == Sort::kBool ? Value::Bool(v != 0) : Value::Int(v);
    }
    case SymValue::Kind::kPtr:
      return Value::Ptr(value.block, std::vector<int64_t>(value.path.begin(), value.path.end()));
    case SymValue::Kind::kStruct: {
      std::vector<Value> fields;
      fields.reserve(value.elems.size());
      for (const SymValue& field : value.elems) {
        fields.push_back(ConcretizeValue(field, arena, model));
      }
      return Value::Struct(std::move(fields));
    }
    case SymValue::Kind::kList: {
      int64_t len = TermToConcrete(value.list_len, arena, model);
      std::vector<Value> elements;
      for (int64_t i = 0; i < len && i < static_cast<int64_t>(value.elems.size()); ++i) {
        elements.push_back(ConcretizeValue(value.elems[static_cast<size_t>(i)], arena, model));
      }
      return Value::List(std::move(elements));
    }
  }
  DNSV_CHECK(false);
  return Value::Unit();
}

SymValue SymValueImporter::Import(const SymValue& value) {
  SymValue out = value;
  if (out.term.valid()) {
    out.term = terms_->Import(value.term);
  }
  if (out.list_len.valid()) {
    out.list_len = terms_->Import(value.list_len);
  }
  if (value.elems.empty()) {
    return out;
  }
  auto [it, inserted] = memo_.try_emplace(value.elems.id());
  if (inserted) {
    std::vector<SymValue> elems;
    elems.reserve(value.elems.size());
    for (const SymValue& elem : value.elems) {
      elems.push_back(Import(elem));
    }
    // The recursive imports may have rehashed memo_: look the slot up again.
    std::pair<SymElems, SymElems>& slot = memo_[value.elems.id()];
    slot.first = value.elems;
    slot.second = SymElems(std::move(elems));
    out.elems = slot.second;
    return out;
  }
  out.elems = it->second.second;
  return out;
}

}  // namespace dnsv
