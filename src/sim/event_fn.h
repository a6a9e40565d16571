#ifndef FRAGDB_SIM_EVENT_FN_H_
#define FRAGDB_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fragdb {

/// Move-only callable with small-buffer optimization, used for simulator
/// events. The protocol code schedules millions of short-lived callbacks
/// per run; `std::function` heap-allocates for anything beyond two or
/// three captured words, which made allocation the dominant cost of the
/// event queue. EventFn stores captures up to kInlineSize bytes inline in
/// the queue's slab and only falls back to the heap for oversized closures
/// (the rare multi-shared_ptr continuations of the move protocols).
///
/// Semantics match the subset of std::function the simulator needs:
/// construct from any callable, move, invoke once or many times, destroy.
/// Copying is deliberately unsupported — events fire exactly once, and
/// move-only storage admits callables std::function would reject.
class EventFn {
 public:
  /// Sized so the common closures fit: a network Dispatch capture
  /// (this + endpoints + timestamps + shared_ptr payload) is 40 bytes; a
  /// scheduler install event (this + generation + install slot) is 24,
  /// since the quasi-transaction waits in the scheduler's slot table
  /// rather than in the closure.
  static constexpr size_t kInlineSize = 80;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      manage_ = [](Op op, void* self, void* dst) {
        D* d = static_cast<D*>(self);
        if (op == Op::kRelocate) ::new (dst) D(std::move(*d));
        d->~D();
      };
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      invoke_ = [](void* p) { (**static_cast<D**>(p))(); };
      manage_ = [](Op op, void* self, void* dst) {
        D** d = static_cast<D**>(self);
        if (op == Op::kRelocate) {
          *reinterpret_cast<D**>(dst) = *d;
        } else {
          delete *d;
        }
      };
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

  /// Destroys the held callable (releasing its captures) without firing.
  void Reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kRelocate, kDestroy };

  void MoveFrom(EventFn& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(Op::kRelocate, other.buf_, buf_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void* self, void* dst) = nullptr;
};

}  // namespace fragdb

#endif  // FRAGDB_SIM_EVENT_FN_H_
