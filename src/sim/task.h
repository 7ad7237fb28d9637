// EventTask: the simulator's event callable.
//
// A move-only replacement for std::function<void()> tuned for the event
// hot path:
//  * small-buffer optimized -- callables up to kInlineSize bytes (which
//    covers every steady-state event the engines schedule) are stored
//    inline in the task, so scheduling them performs zero allocations;
//  * larger callables are heap-allocated and freed when the task dies;
//  * move-only -- a scheduled event fires exactly once, so there is
//    nothing a copy could mean.  This also lets events capture move-only
//    state, which std::function (copyable by contract) forbids.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hetis::sim {

class EventTask {
 public:
  /// Inline storage size.  Sized so the common engine events ([this, &sim]
  /// plus a moved-in vector or a couple of scalars) stay allocation-free
  /// while keeping EventQueue::Event inside two cache lines.
  static constexpr std::size_t kInlineSize = 48;

  EventTask() = default;

  /// Wraps `f`, spilling to the heap when it does not fit inline.
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, EventTask>>>
  explicit EventTask(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "EventTask: over-aligned callables are not supported");
    if constexpr (sizeof(Fn) <= kInlineSize && std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ptr_slot() = new Fn(std::forward<F>(f));
      ops_ = heap_ops<Fn>();
    }
  }

  EventTask(const EventTask&) = delete;
  EventTask& operator=(const EventTask&) = delete;

  EventTask(EventTask&& other) noexcept { move_from(other); }

  EventTask& operator=(EventTask&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  ~EventTask() { reset(); }

  /// Invokes the callable.  Undefined when empty (the queue never hands
  /// out empty tasks).
  void operator()() { ops_->invoke(object()); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable spilled to the heap (tests + diagnostics).
  bool heap_allocated() const { return ops_ != nullptr && ops_->on_heap; }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    /// Moves the object from src storage into dst storage and destroys the
    /// source (inline case only; heap objects move by pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroys the object (and frees it, for heap objects).
    void (*destroy)(void* obj) noexcept;
    bool on_heap;  // false => stored inline
  };

  template <class Fn>
  static const Ops* inline_ops() {
    static const Ops ops = {
        [](void* obj) { (*static_cast<Fn*>(obj))(); },
        [](void* dst, void* src) noexcept {
          Fn* s = static_cast<Fn*>(src);
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        [](void* obj) noexcept { static_cast<Fn*>(obj)->~Fn(); },
        false,
    };
    return &ops;
  }

  template <class Fn>
  static const Ops* heap_ops() {
    static const Ops ops = {
        [](void* obj) { (*static_cast<Fn*>(obj))(); },
        nullptr,  // heap objects relocate by pointer
        [](void* obj) noexcept { delete static_cast<Fn*>(obj); },
        true,
    };
    return &ops;
  }

  void*& ptr_slot() { return *reinterpret_cast<void**>(storage_); }
  void* object() { return ops_->on_heap ? ptr_slot() : storage_; }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(object());
    ops_ = nullptr;
  }

  void move_from(EventTask& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->on_heap) {
        ptr_slot() = other.ptr_slot();
      } else {
        ops_->relocate(storage_, other.storage_);
      }
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace hetis::sim
