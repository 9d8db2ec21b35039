// Move-only type-erased nullary callable with inline small-object storage:
// the type the event queue stores every scheduled callback in.
// Callables up to kInlineBytes that are nothrow-move-constructible live
// inside the object itself — the common simulation callbacks (datagram
// transmit and delivery capture 48 bytes: an 8-byte fabric pointer plus a
// 40-byte net::Datagram, exactly the inline budget) therefore cost zero heap
// allocations. Larger or throwing-move callables fall back
// to a single heap allocation, exactly like std::function — but with a
// 48-byte threshold instead of libstdc++'s 16.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hg::sim {

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFn> && std::is_invocable_v<D&>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = heap_ops<D>();
    }
  }

  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  // Whether the callable lives in the inline buffer (introspection/tests).
  [[nodiscard]] bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct *src into dst, then destroy *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <class D>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
        [](void* dst, void* src) noexcept {
          D* s = std::launder(reinterpret_cast<D*>(src));
          ::new (dst) D(std::move(*s));
          s->~D();
        },
        [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
        true,
    };
    return &ops;
  }

  template <class D>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); },
        false,
    };
    return &ops;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace hg::sim
