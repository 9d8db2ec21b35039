// Move-only type-erased callable with inline small-object storage.
//
// `BasicSmallFn<R(Args...)>` is the general template; `SmallFn` is the
// nullary alias the event queue stores every scheduled callback in.
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

template <class Sig>
class BasicSmallFn;

template <class R, class... Args>
class BasicSmallFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  BasicSmallFn() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, BasicSmallFn> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  BasicSmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = heap_ops<D>();
    }
  }

  BasicSmallFn(BasicSmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  BasicSmallFn& operator=(BasicSmallFn&& o) noexcept {
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

  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;

  ~BasicSmallFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  // Whether the callable lives in the inline buffer (introspection/tests).
  [[nodiscard]] bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-construct *src into dst, then destroy *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <class D>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* p, Args&&... args) -> R {
          return (*std::launder(reinterpret_cast<D*>(p)))(std::forward<Args>(args)...);
        },
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
        [](void* p, Args&&... args) -> R {
          return (**std::launder(reinterpret_cast<D**>(p)))(std::forward<Args>(args)...);
        },
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

// The event queue's callback type: nullary, void.
using SmallFn = BasicSmallFn<void()>;

}  // namespace hg::sim
