// Reference-counted nodes for the symbolic executor's persistent state
// (paper §5.1's block memory, shared copy-on-write the way KLEE shares
// object states between forked paths).
//
// Copying a handle costs one count increment and never copies the node. A
// handle that changes its node first copies it, unless the handle is the
// node's only owner; so a write copies only the nodes on its way down, and
// every other holder keeps seeing the old contents.
//
// Thread rule: counts are atomic, so handles to one node may be copied and
// dropped on several threads at once (compare stages on several threads
// import a spec exploration cached in VerifyContext). A node is changed in
// place only while its count is one, that is, while no other handle on any
// thread can reach it; a node that two handles share is never written.
#ifndef DNSV_SYM_SHARED_H_
#define DNSV_SYM_SHARED_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dnsv {

// Base of every shared node. A copy (made to un-share a node) starts with
// one owner.
struct RefCounted {
  RefCounted() = default;
  RefCounted(const RefCounted&) {}
  RefCounted& operator=(const RefCounted&) = delete;

  std::atomic<uint32_t> refs{1};
};

// Owning handle to a RefCounted node.
template <typename T>
class Shared {
 public:
  Shared() = default;
  // Adopts a freshly allocated node, whose count is already one.
  explicit Shared(T* node) : node_(node) {}
  Shared(const Shared& other) : node_(other.node_) {
    if (node_ != nullptr) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Shared(Shared&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Shared& operator=(Shared other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~Shared() {
    if (node_ != nullptr && node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node_;
    }
  }

  const T* get() const { return node_; }
  const T* operator->() const { return node_; }
  explicit operator bool() const { return node_ != nullptr; }

  // The node, first copied when another handle shares it. The acquire load
  // pairs with the release in other owners' decrements, so their reads of
  // the node happen before this handle writes it.
  T* Mutable() {
    if (node_->refs.load(std::memory_order_acquire) != 1) {
      *this = Shared(new T(*node_));
    }
    return node_;
  }

 private:
  T* node_ = nullptr;
};

// A vector whose copies share storage: elements sit in fixed-size chunks
// behind a shared chunk table, so copying the vector copies one handle and
// a write copies at most the table and the one chunk it lands in. Slots are
// "unwritten" until Set; Find reports them as absent.
template <typename T>
class CowVector {
 public:
  static constexpr size_t kChunkSize = 16;

  size_t size() const { return table_ ? table_->size : 0; }

  // nullptr when `index` is out of range or was never written.
  const T* Find(size_t index) const {
    if (index >= size()) return nullptr;
    const Shared<Chunk>& chunk = table_->chunks[index / kChunkSize];
    size_t slot = index % kChunkSize;
    if (!chunk || (chunk->written & (1u << slot)) == 0) return nullptr;
    return &chunk->items[slot];
  }

  // Grows to `n` slots; the new ones are unwritten.
  void Resize(size_t n) {
    if (!table_) table_ = Shared<Table>(new Table);
    Table* table = table_.Mutable();
    table->size = n;
    table->chunks.resize((n + kChunkSize - 1) / kChunkSize);
  }

  // The slot at `index` (< size()), marked written, in storage private to
  // this vector.
  T* Mutable(size_t index) {
    Table* table = table_.Mutable();
    Shared<Chunk>& handle = table->chunks[index / kChunkSize];
    if (!handle) handle = Shared<Chunk>(new Chunk);
    Chunk* chunk = handle.Mutable();
    chunk->written |= 1u << (index % kChunkSize);
    return &chunk->items[index % kChunkSize];
  }

  void Set(size_t index, T value) { *Mutable(index) = std::move(value); }

  size_t PushBack(T value) {
    size_t index = size();
    Resize(index + 1);
    Set(index, std::move(value));
    return index;
  }

 private:
  static_assert(kChunkSize <= 32, "written mask is 32 bits");
  struct Chunk : RefCounted {
    uint32_t written = 0;
    std::array<T, kChunkSize> items;
  };
  struct Table : RefCounted {
    size_t size = 0;
    std::vector<Shared<Chunk>> chunks;
  };
  Shared<Table> table_;
};

}  // namespace dnsv

#endif  // DNSV_SYM_SHARED_H_
