// Small open-addressing memo table for pure cost-model evaluations.
//
// The simulator prices the same configurations millions of times: a decode
// iteration re-evaluates the identical dense stack for every recurring
// batch size.  EvalCache memoizes that pure function exactly: the key is
// the full input tuple compared byte-for-byte (memcmp), so a hit returns a
// stored copy of precisely what recomputation would produce --
// bit-identical by construction, which the golden CSV byte-compares in CI
// depend on.
//
// Keys must be trivially copyable and PADDING-FREE (memcmp compares every
// byte); compose them from same-width integer fields and zero-initialize.
// Capacity is fixed at construction (a power of two), but the table is
// allocated by the first insert, so a model that is built and never
// queried costs no memory.  When a probe window is full the oldest entry
// in the window is replaced, so the table can never grow on the hot path.
// Entries are invalidated wholesale via clear() -- ExecModel calls it when
// the cluster's condition-overlay epoch moves, the only external state a
// cached evaluation can depend on.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace hetis::costmodel {

template <typename Key, typename Value>
class EvalCache {
 public:
  explicit EvalCache(std::size_t slots = 1024) {
    std::size_t n = 2;
    while (n < slots) n <<= 1;
    mask_ = n - 1;
  }

  /// Bitwise lookup; returns nullptr on miss.  The pointer is valid until
  /// the next insert() or clear().
  const Value* find(const Key& k) {
    if (table_.empty()) {
      ++misses_;
      return nullptr;
    }
    const std::uint64_t h = hash(k);
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      const Slot& s = table_[(h + i) & mask_];
      if (!s.used) break;  // slots never free individually; see insert()
      if (s.hash == h && std::memcmp(&s.key, &k, sizeof(Key)) == 0) {
        ++hits_;
        return &s.value;
      }
    }
    ++misses_;
    return nullptr;
  }

  void insert(const Key& k, const Value& v) {
    if (table_.empty()) table_.resize(mask_ + 1);
    const std::uint64_t h = hash(k);
    std::size_t victim = h & mask_;
    std::uint64_t victim_stamp = table_[victim].stamp;
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      Slot& s = table_[(h + i) & mask_];
      if (!s.used) {
        fill(s, h, k, v);
        return;
      }
      if (s.stamp < victim_stamp) {
        victim_stamp = s.stamp;
        victim = (h + i) & mask_;
      }
    }
    fill(table_[victim], h, k, v);
  }

  void clear() {
    for (Slot& s : table_) s.used = false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::size_t kProbeWindow = 8;

  struct Slot {
    bool used = false;
    std::uint64_t stamp = 0;
    std::uint64_t hash = 0;
    Key key{};
    Value value{};
  };

  static std::uint64_t hash(const Key& k) {
    // FNV-1a folded 8 bytes at a time over the key's representation.
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t h = 1469598103934665603ull;
    const unsigned char* b = reinterpret_cast<const unsigned char*>(&k);
    std::size_t n = sizeof(Key);
    while (n >= 8) {
      std::uint64_t w;
      std::memcpy(&w, b, 8);
      h = (h ^ w) * kPrime;
      b += 8;
      n -= 8;
    }
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * kPrime;
    return h;
  }

  void fill(Slot& s, std::uint64_t h, const Key& k, const Value& v) {
    s.used = true;
    s.stamp = ++clock_;
    s.hash = h;
    s.key = k;
    s.value = v;
  }

  std::size_t mask_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Slot> table_;
};

}  // namespace hetis::costmodel
